package sched

import (
	"math"
	"testing"
	"time"

	"swapservellm/internal/workload"
)

// monday is a weekday anchor (2025-11-17 is a Monday), so a
// train-weekdays / predict-weekday split stays inside the diurnal
// curve's weekday regime.
var monday = time.Date(2025, 11, 17, 0, 0, 0, 0, time.UTC)

// TestPredictorGoldenTrace trains the predictor on three weekdays of
// the diurnal coding workload and scores its forecast for the fourth
// against the actual arrivals: the golden-trace tolerance check for the
// time-of-day histogram.
func TestPredictorGoldenTrace(t *testing.T) {
	const (
		model = "llama3.1:8b-fp16"
		peak  = 60.0 // requests per hour at the diurnal peak
	)
	gen := workload.NewGenerator(42)
	reqs := gen.Arrivals(workload.ClassCoding, model, monday, monday.AddDate(0, 0, 4), peak, 1)

	p := NewPredictor()
	evalStart := monday.AddDate(0, 0, 3) // Thursday
	actual := make([]float64, 24)
	for _, r := range reqs {
		if r.At.Before(evalStart) {
			p.Observe(r.Model, r.At)
			continue
		}
		actual[r.At.Hour()]++
	}
	if !p.Trained(model) {
		t.Fatal("predictor untrained after three days of arrivals")
	}

	var predTotal, actTotal, peakErr float64
	predicted := make([]float64, 24)
	for h := 0; h < 24; h++ {
		from := evalStart.Add(time.Duration(h) * time.Hour)
		predicted[h] = p.ExpectedArrivals(model, from, from.Add(time.Hour))
		predTotal += predicted[h]
		actTotal += actual[h]
	}

	// Daily volume within 25% of the realized trace.
	if predTotal < 0.75*actTotal || predTotal > 1.25*actTotal {
		t.Fatalf("daily volume: predicted %.0f vs actual %.0f (want within 25%%)", predTotal, actTotal)
	}

	// Business-hours shape: each core hour within 50% relative error
	// (the actual trace is itself Poisson-noisy at ~13%/hour).
	for h := 9; h <= 16; h++ {
		if actual[h] == 0 {
			continue
		}
		rel := math.Abs(predicted[h]-actual[h]) / actual[h]
		if rel > 0.5 {
			t.Errorf("hour %02d: predicted %.1f vs actual %.0f (rel err %.0f%%)", h, predicted[h], actual[h], 100*rel)
		}
		peakErr += rel
	}

	// The ramp must be anticipated: forecast for 9am clearly above the
	// overnight floor before any Thursday arrival was observed.
	night := predicted[3]
	if predicted[9] < 4*night+1 {
		t.Fatalf("no ramp anticipation: 9am forecast %.1f vs 3am %.1f", predicted[9], night)
	}

	// Overnight stays near the floor: the predictor must not smear the
	// peak into the trough.
	if peakHour := argmax(predicted); peakHour < 10 || peakHour > 15 {
		t.Fatalf("predicted peak hour %d outside the 10..15 business window", argmax(predicted))
	}
}

// TestPredictorRecentRateLifts checks the EWMA side: when live traffic
// runs hotter than history, the short-horizon forecast follows it.
func TestPredictorRecentRateLifts(t *testing.T) {
	p := NewPredictor()
	now := monday.Add(12 * time.Hour)
	// History: one sparse arrival per bucket yesterday.
	for i := 0; i < 96; i++ {
		p.Observe("m", monday.AddDate(0, 0, -1).Add(time.Duration(i)*15*time.Minute))
	}
	// Live burst: one arrival per second for the last minute.
	for i := 60; i > 0; i-- {
		p.Observe("m", now.Add(-time.Duration(i)*time.Second))
	}
	rate := p.Rate("m", now)
	if rate < 0.5 {
		t.Fatalf("recent burst at 1 req/s forecast as %.3f req/s", rate)
	}
	// Far beyond the EWMA window the burst must have decayed back to
	// the (tiny) historical rate.
	far := p.Rate("m", now.Add(2*time.Hour))
	if far > 0.05 {
		t.Fatalf("burst leaked %.3f req/s into a 2h-out forecast", far)
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// TestPredictorNextArrival: the point forecast is untrained until two
// arrivals, and for gaps under a quarter of the window it follows the
// α = ¼ recurrence the node's prefetcher was built around.
func TestPredictorNextArrival(t *testing.T) {
	const model = "m"
	p := NewPredictor()
	if _, _, ok := p.NextArrival(model); ok {
		t.Fatal("forecast before any arrival")
	}
	at := monday
	p.Observe(model, at)
	if _, _, ok := p.NextArrival(model); ok {
		t.Fatal("forecast after one arrival")
	}

	// Gaps up to 149 s stay under window/4 = 150 s.
	gaps := []time.Duration{12 * time.Second, 3 * time.Second, 149 * time.Second,
		7300 * time.Millisecond, time.Second, 90 * time.Second, 1234567 * time.Microsecond}
	var want time.Duration
	for i, gap := range gaps {
		at = at.Add(gap)
		p.Observe(model, at)
		if i == 0 {
			want = gap
		} else {
			want += (gap - want) / 4
		}
		next, got, ok := p.NextArrival(model)
		if !ok {
			t.Fatalf("arrival %d: no forecast", i+2)
		}
		if d := got - want; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("arrival %d: gap %v, want %v within 1µs", i+2, got, want)
		}
		if !next.Equal(at.Add(got)) {
			t.Fatalf("arrival %d: next %v, want last arrival + gap %v", i+2, next, at.Add(got))
		}
	}
}
