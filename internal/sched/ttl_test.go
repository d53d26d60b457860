package sched

import (
	"testing"
	"time"
)

func TestFixedTTL(t *testing.T) {
	f := &FixedTTL{TTL: 100 * time.Second}
	now := monday
	if f.ShouldEvict("m", 99*time.Second, now) {
		t.Fatal("evicted below TTL")
	}
	if !f.ShouldEvict("m", 100*time.Second, now) {
		t.Fatal("kept at TTL")
	}
}

// TestPredictiveTTLOrder: with equal idle times the predictor-informed
// policy keeps the model whose next arrival is due before a cold
// swap-in would pay off, and reclaims the one with no forecast demand.
func TestPredictiveTTLOrder(t *testing.T) {
	pred := NewPredictor()
	now := monday.Add(12 * time.Hour)
	// "busy": an arrival every 10s over the last five minutes.
	for i := 30; i > 0; i-- {
		pred.Observe("busy", now.Add(-time.Duration(i)*10*time.Second))
	}
	// "quiet": one arrival, hours ago.
	pred.Observe("quiet", now.Add(-6*time.Hour))

	p := NewPredictiveTTL(pred, func(string) time.Duration { return 5 * time.Second })
	idle := time.Minute
	if p.ShouldEvict("busy", idle, now) {
		t.Fatal("evicted a model with a 10s predicted gap and a 20s eviction bar")
	}
	if !p.ShouldEvict("quiet", idle, now) {
		t.Fatal("kept a model with no forecast demand")
	}
	// Floor and ceiling guards.
	if p.ShouldEvict("quiet", 10*time.Second, now) {
		t.Fatal("evicted below the idle floor")
	}
	if !p.ShouldEvict("busy", 2*time.Hour, now) {
		t.Fatal("ceiling did not force eviction")
	}
}
