package sched

import (
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/metrics"
)

// trainSteady teaches the predictor a steady rate of one arrival every
// gap for the hour before now.
func trainSteady(p *Predictor, model string, now time.Time, gap time.Duration) {
	for at := now.Add(-time.Hour); at.Before(now); at = at.Add(gap) {
		p.Observe(model, at)
	}
}

func TestPrewarmerIssuesAndScoresHit(t *testing.T) {
	pred := NewPredictor()
	now := monday.Add(10 * time.Hour)
	trainSteady(pred, "busy", now, 30*time.Second)

	reg := metrics.NewRegistry()
	var issued []string
	pw := NewPrewarmer(PrewarmConfig{
		Predictor: pred,
		Models:    []string{"busy", "idle"},
		Horizon:   5 * time.Minute,
		Interval:  time.Minute,
		Threshold: 0.5,
		Issue:     func(m string) bool { issued = append(issued, m); return true },
		Registry:  reg,
	})

	pw.Sweep(now)
	if len(issued) != 1 || issued[0] != "busy" {
		t.Fatalf("issued %v, want [busy]", issued)
	}
	if got := reg.Counter("sched_prefetch_issued").Value(); got != 1 {
		t.Fatalf("issued counter %v, want 1", got)
	}
	// A second sweep inside the horizon must not re-issue.
	pw.Sweep(now.Add(time.Minute))
	if len(issued) != 1 {
		t.Fatalf("re-issued inside the horizon: %v", issued)
	}
	// A warm placement inside the horizon scores a hit.
	pw.NotePlacement("busy", true, now.Add(2*time.Minute))
	if got := reg.Counter("sched_prefetch_hits").Value(); got != 1 {
		t.Fatalf("hit counter %v, want 1", got)
	}
}

func TestPrewarmerScoresMissOnExpiry(t *testing.T) {
	pred := NewPredictor()
	now := monday.Add(10 * time.Hour)
	trainSteady(pred, "busy", now, 30*time.Second)

	reg := metrics.NewRegistry()
	pw := NewPrewarmer(PrewarmConfig{
		Predictor: pred,
		Models:    []string{"busy"},
		Horizon:   5 * time.Minute,
		Interval:  time.Minute,
		Threshold: 0.5,
		Issue:     func(string) bool { return true },
		Registry:  reg,
	})
	pw.Sweep(now)
	// No warm placement arrives; the horizon lapses.
	pw.NotePlacement("busy", false, now.Add(6*time.Minute))
	if got := reg.Counter("sched_prefetch_misses").Value(); got != 1 {
		t.Fatalf("miss counter %v, want 1", got)
	}
	if got := reg.Counter("sched_prefetch_hits").Value(); got != 0 {
		t.Fatalf("hit counter %v, want 0", got)
	}
}

// TestPrewarmerChaosSuppression: a fired sched.prefetch site swallows
// the pre-warm the predictor asked for.
func TestPrewarmerChaosSuppression(t *testing.T) {
	pred := NewPredictor()
	now := monday.Add(10 * time.Hour)
	trainSteady(pred, "busy", now, 30*time.Second)

	reg := metrics.NewRegistry()
	var issued int
	pw := NewPrewarmer(PrewarmConfig{
		Predictor: pred,
		Models:    []string{"busy"},
		Horizon:   5 * time.Minute,
		Interval:  time.Minute,
		Threshold: 0.5,
		Issue:     func(string) bool { issued++; return true },
		Registry:  reg,
		Chaos:     chaos.FailNext(chaos.SiteSchedPrefetch, 1),
	})
	pw.Sweep(now)
	if issued != 0 {
		t.Fatal("pre-warm issued despite chaos suppression")
	}
	if got := reg.Counter("sched_prefetch_suppressed").Value(); got != 1 {
		t.Fatalf("suppressed counter %v, want 1", got)
	}
	// The injector exhausted, the next sweep issues normally.
	pw.Sweep(now.Add(time.Minute))
	if issued != 1 {
		t.Fatalf("issued %d after suppression cleared, want 1", issued)
	}
}
