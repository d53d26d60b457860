package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swapservellm/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// tracedExchange boots the standard exchange fixture with a tracer,
// serves one sequential swap-in that has to evict (an exchange), and
// returns the deterministic
// WriteTree rendering plus the raw span snapshot. Each call builds a
// fresh server, clock, and tracer, so two calls are two independent
// runs of the same seedless deterministic simulation.
func tracedExchange(t *testing.T) (string, []obs.SpanData) {
	t.Helper()
	clock := virtualTestClock(t)
	tracer := obs.NewTracer(clock)
	s, _, target := exchangeServer(t, false, Options{Clock: clock, Tracer: tracer})
	if err := serveExchange(context.Background(), s, target); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), tracer.Snapshot()
}

// TestGoldenTraceDeterministic pins the span tree of a fixed-seed
// sequential exchange two ways: two fresh runs must render
// byte-identically (no hidden wall-clock or map-order dependence), and
// the rendering must match the checked-in golden file
// (testdata/golden_exchange_tree.txt; regenerate with -update after an
// intentional lifecycle change).
func TestGoldenTraceDeterministic(t *testing.T) {
	first, _ := tracedExchange(t)
	second, _ := tracedExchange(t)
	if first != second {
		t.Fatalf("two identical runs rendered different trees:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}

	golden := filepath.Join("testdata", "golden_exchange_tree.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(first), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if first != string(want) {
		t.Fatalf("trace tree deviates from golden file (re-run with -update if the lifecycle changed intentionally):\n--- got ---\n%s\n--- want ---\n%s", first, want)
	}

	// Structural floor, independent of the golden bytes: the exchange
	// span must exist and nest the full phase taxonomy down to chunk
	// events.
	for _, must := range []string{
		"- swap.exchange",
		"- swap.out",
		"- swap.in",
		"- reserve",
		"- ckpt.checkpoint",
		"- ckpt.restore",
		"- cgroup.freeze",
		"- cgroup.thaw",
		"* chunk",
	} {
		if !strings.Contains(first, must) {
			t.Errorf("trace tree missing %q:\n%s", must, first)
		}
	}
}

// TestExchangePhaseDurationsSumToLatency checks the trace's core
// accounting claim: the swap.exchange span's direct children are its
// phases — the reservation (nesting the victim's swap-out it drives)
// and the target's swap-in — and together they cover (nearly) all of
// the measured exchange latency: the trace explains where the time
// went. The restore starts inside the victim's last chunks, so the
// phases overlap and coverage is the union of their intervals.
func TestExchangePhaseDurationsSumToLatency(t *testing.T) {
	_, spans := tracedExchange(t)
	var exch obs.SpanData
	found := false
	for _, s := range spans {
		if s.Name == "swap.exchange" {
			if found {
				t.Fatal("more than one swap.exchange span in a single-exchange run")
			}
			exch, found = s, true
		}
	}
	if !found {
		t.Fatal("no swap.exchange span recorded")
	}
	if !exch.Ended {
		t.Fatal("swap.exchange span never ended")
	}
	total := exch.End.Sub(exch.Start)
	if total <= 0 {
		t.Fatalf("swap.exchange duration = %v", total)
	}

	// Children arrive in start order, so one sweep merges their
	// intervals.
	var covered time.Duration
	var reach time.Time
	phases := map[string]time.Duration{}
	var reserveID int64
	for _, s := range spans {
		if s.Parent != exch.ID {
			continue
		}
		if s.Name == "reserve" {
			reserveID = s.ID
		}
		if !s.Ended {
			t.Fatalf("phase %s never ended", s.Name)
		}
		if s.Start.Before(exch.Start) || s.End.After(exch.End) {
			t.Fatalf("phase %s [%v, %v] escapes the exchange [%v, %v]",
				s.Name, s.Start, s.End, exch.Start, exch.End)
		}
		phases[s.Name] += s.End.Sub(s.Start)
		start := s.Start
		if start.Before(reach) {
			start = reach
		}
		if s.End.After(start) {
			covered += s.End.Sub(start)
			reach = s.End
		}
	}
	for _, want := range []string{"swap.in", "reserve"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("exchange has no %s phase; phases = %v", want, phases)
		}
	}
	evicted := false
	for _, s := range spans {
		evicted = evicted || (s.Name == "swap.out" && s.Parent == reserveID)
	}
	if !evicted {
		t.Error("the reservation nests no victim swap.out")
	}
	// The uncovered remainder (bookkeeping between phases) must stay
	// under 10% of the exchange.
	if gap := total - covered; gap > total/10 {
		t.Fatalf("phases cover only %v of the %v exchange (gap %v > 10%%); phases = %v",
			covered, total, gap, phases)
	}
}
