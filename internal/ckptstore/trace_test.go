package ckptstore

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swapservellm/internal/chaos"
	"swapservellm/internal/metrics"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// tracedLifecycle runs a fixed checkpoint → delta re-checkpoint →
// demote → restore-with-fault → promote sequence under a tracer and
// returns the deterministic WriteTree rendering plus the registry.
func tracedLifecycle(t *testing.T) (string, *metrics.Registry) {
	t.Helper()
	clock := testClock(t)
	tracer := obs.NewTracer(clock)
	reg := metrics.NewRegistry()
	tracer.SetRegistry(reg)
	tb, _ := perfmodel.TestbedByName("h100")
	s := New(clock, tb, WithRegistry(reg), WithNodeID("n1"))
	ctx := obs.WithTracer(context.Background(), tracer)

	refs := refsFor("m", 3, 1<<20)

	// Base checkpoint: everything is new.
	s.PlanCheckpoint("a", refs)
	s.CommitCheckpoint(ctx, "a")
	// Replica checkpoint: everything dedups.
	s.PlanCheckpoint("b", refs)
	s.CommitCheckpoint(ctx, "b")
	// Demote b (shared chunks kept hot by a), then a (writes to disk).
	if _, _, err := s.Demote(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Demote(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// Restore a with one faulted fetch: the retry is annotated on the
	// ckpt.fetch span.
	s.SetChaos(chaos.FailNext(chaos.SiteCkptFetch, 1))
	sess, err := s.OpenRestore(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.FetchRange(0, 3<<20); err != nil {
		t.Fatal(err)
	}
	sess.Close(nil)
	s.Release("a")
	// Promote b back: its bytes are already hot from a's restore.
	if _, _, err := s.Promote(ctx, "b"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), reg
}

// TestGoldenTraceLifecycle pins the ckpt.dedup / ckpt.fetch /
// ckpt.promote span shapes: two fresh runs must render byte-identically
// and match testdata/golden_lifecycle_tree.txt (regenerate with -update
// after an intentional change).
func TestGoldenTraceLifecycle(t *testing.T) {
	first, _ := tracedLifecycle(t)
	second, _ := tracedLifecycle(t)
	if first != second {
		t.Fatalf("two identical runs rendered different trees:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}

	golden := filepath.Join("testdata", "golden_lifecycle_tree.txt")
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
		t.Fatalf("trace tree deviates from golden file (re-run with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s", first, want)
	}

	for _, must := range []string{
		"- ckpt.dedup",
		"- ckpt.fetch",
		"- ckpt.promote",
		"dedup_bytes=3145728", // replica checkpoint fully deduped
		"bytes_local_disk=",   // restore read a's exclusive bytes from disk
		"fault",               // the injected fetch fault is annotated
	} {
		if !strings.Contains(first, must) {
			t.Errorf("trace tree missing %q:\n%s", must, first)
		}
	}
}

// TestLifecycleCounters pins the per-tier byte counters the lifecycle
// must leave in the metrics registry.
func TestLifecycleCounters(t *testing.T) {
	_, reg := tracedLifecycle(t)
	mb := float64(1 << 20)
	for counter, want := range map[string]float64{
		"ckpt_new_bytes":                3 * mb, // base checkpoint
		"ckpt_dedup_bytes":              3 * mb, // replica checkpoint
		"ckpt_fetch_bytes_local_disk":   3 * mb, // restore of a
		"ckpt_promote_bytes_dedup":      3 * mb, // b promoted over hot bytes
		"ckpt_promote_bytes_moved":      0,
		"ckpt_demote_shared_kept_bytes": 3 * mb, // b's demote kept shared chunks
	} {
		if got := reg.Counter(counter).Value(); got != want {
			t.Errorf("%s = %v, want %v", counter, got, want)
		}
	}
}
