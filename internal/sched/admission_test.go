package sched

import (
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/config"
	"swapservellm/internal/metrics"
)

// testClasses is a three-tier declaration used across admission tests.
func testClasses() config.SchedCfg {
	cfg := config.SchedCfg{
		Classes: []config.SchedClass{
			{Name: "interactive", Priority: 0, SLOSec: 1, RatePerSec: 5},
			{Name: "standard", Priority: 1, SLOSec: 5, RatePerSec: 2},
			{Name: "batch", Priority: 2, SLOSec: 30, RatePerSec: 1},
		},
	}
	// Mirror config validation's burst defaulting.
	for i := range cfg.Classes {
		c := &cfg.Classes[i]
		c.Burst = 2 * c.RatePerSec
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return cfg
}

// TestAdmissionNoStarvation is the guaranteed-share property test:
// under sustained 10× overload with every class's predicted wait far
// over its SLO, each class must still be admitted at no less than its
// token-bucket rate — no class starves, however low its priority.
func TestAdmissionNoStarvation(t *testing.T) {
	reg := metrics.NewRegistry()
	adm, err := NewAdmission(testClasses(), reg, nil)
	if err != nil {
		t.Fatal(err)
	}

	const seconds = 120
	wait := 10 * time.Minute // hopeless: over every SLO
	admitted := map[string]int{}
	offered := map[string]int{}
	for s := 0; s < seconds; s++ {
		now := monday.Add(time.Duration(s) * time.Second)
		for _, class := range adm.Classes() {
			// 10× each class's guaranteed rate, spread within the second.
			rate := map[string]float64{"interactive": 5, "standard": 2, "batch": 1}[class]
			n := int(rate * 10)
			for i := 0; i < n; i++ {
				at := now.Add(time.Duration(i) * time.Second / time.Duration(n))
				offered[class]++
				if adm.Decide(class, wait, at).Admit {
					admitted[class]++
				}
			}
		}
	}

	for _, class := range adm.Classes() {
		rate := map[string]float64{"interactive": 5, "standard": 2, "batch": 1}[class]
		guaranteed := rate * seconds
		if got := float64(admitted[class]); got < 0.95*guaranteed {
			t.Errorf("class %s starved: admitted %.0f < guaranteed %.0f over %ds", class, got, guaranteed, seconds)
		}
		if admitted[class] == offered[class] {
			t.Errorf("class %s was never shed under 10x overload", class)
		}
	}
	// Counters mirror the decisions.
	if got := reg.Counter("sched_shed_batch").Value(); got == 0 {
		t.Error("sched_shed_batch counter is zero under overload")
	}
}

// TestAdmissionSlackPath: with predicted wait inside the SLO the
// request is admitted without spending a token.
func TestAdmissionSlackPath(t *testing.T) {
	adm, err := NewAdmission(testClasses(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := monday
	for i := 0; i < 100; i++ {
		d := adm.Decide("batch", 0, now.Add(time.Duration(i)*10*time.Millisecond))
		if !d.Admit || d.Reason != "slack" {
			t.Fatalf("request %d: %+v, want slack admit", i, d)
		}
	}
}

// TestAdmissionPriorityWait: the predicted wait for a high class only
// counts work at its priority or higher, so overload from low classes
// cannot shed the top class.
func TestAdmissionPriorityWait(t *testing.T) {
	adm, err := NewAdmission(testClasses(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Teach the service-time EWMA 1s per request, then park a pile of
	// batch work in flight.
	adm.NoteStart("standard")
	adm.NoteDone("standard", time.Second)
	for i := 0; i < 50; i++ {
		adm.NoteStart("batch")
	}
	if hi, lo := adm.PredictedWait("interactive"), adm.PredictedWait("batch"); hi >= lo {
		t.Fatalf("interactive wait %s not below batch wait %s", hi, lo)
	}
	if w := adm.PredictedWait("interactive"); w != 0 {
		t.Fatalf("interactive wait %s, want 0 with only batch in flight", w)
	}
}

// TestAdmissionRetryAfter: sheds carry a Retry-After hint derived from
// the bucket refill rate.
func TestAdmissionRetryAfter(t *testing.T) {
	adm, err := NewAdmission(testClasses(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := monday
	wait := time.Hour
	var shed *Decision
	for i := 0; i < 100; i++ {
		d := adm.Decide("batch", wait, now)
		if !d.Admit {
			shed = &d
			break
		}
	}
	if shed == nil {
		t.Fatal("bucket never drained")
	}
	if shed.RetryAfter <= 0 || shed.RetryAfter > 2*time.Second {
		t.Fatalf("RetryAfter = %s, want (0, 2s] at 1 token/s", shed.RetryAfter)
	}
}

// TestAdmissionChaosFlip: a fired sched.admit site inverts the
// decision deterministically.
func TestAdmissionChaosFlip(t *testing.T) {
	adm, err := NewAdmission(testClasses(), nil, chaos.FailNext(chaos.SiteSchedAdmit, 1))
	if err != nil {
		t.Fatal(err)
	}
	d := adm.Decide("interactive", 0, monday)
	if d.Admit || d.Reason != "chaos" {
		t.Fatalf("first decision %+v, want chaos-flipped shed", d)
	}
	if d.RetryAfter <= 0 {
		t.Fatal("chaos shed missing Retry-After")
	}
	if d2 := adm.Decide("interactive", 0, monday.Add(time.Second)); !d2.Admit {
		t.Fatalf("second decision %+v, want normal admit", d2)
	}
}

// TestAdmissionSLOAttainmentGauge: the attainment gauge is the share of
// finished requests within their class SLO, checked after every finish
// against a brute-force count over the latencies seen so far —
// including ones exactly at the SLO, which count as met.
func TestAdmissionSLOAttainmentGauge(t *testing.T) {
	reg := metrics.NewRegistry()
	adm, err := NewAdmission(testClasses(), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	slo := map[string]time.Duration{"interactive": time.Second, "standard": 5 * time.Second}
	seen := map[string][]time.Duration{}
	for i := 0; i < 400; i++ {
		class := "interactive"
		if i%3 == 0 {
			class = "standard"
		}
		// Spread latencies from 0 to twice the SLO in quarter steps, so
		// the SLO itself recurs.
		latency := slo[class] * time.Duration((i*7)%9) / 4
		adm.NoteStart(class)
		adm.NoteDone(class, latency)
		seen[class] = append(seen[class], latency)

		within := 0
		for _, l := range seen[class] {
			if l <= slo[class] {
				within++
			}
		}
		want := float64(within) / float64(len(seen[class]))
		if got := reg.Gauge("sched_slo_attainment_" + class).Value(); got != want {
			t.Fatalf("finish %d (%s): gauge %v, brute force %v", i, class, got, want)
		}
	}
	for class, lats := range seen {
		if got := reg.Histogram("sched_latency_" + class).Count(); got != len(lats) {
			t.Errorf("%s histogram holds %d observations, want %d", class, got, len(lats))
		}
	}
	if got := reg.Gauge("sched_slo_attainment_batch").Value(); got != 0 {
		t.Errorf("batch finished nothing but its gauge reads %v", got)
	}
}
