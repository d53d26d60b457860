package sched

import (
	"math"
	"sync"
	"time"
)

// Predictor forecasts per-model request rates from two signals: a
// sliding-window EWMA over recent inter-arrival gaps (tracks the level
// the fleet is serving right now) and a time-of-day histogram learned
// across days (anticipates the diurnal ramps the EWMA can only chase).
// The blend lets the pre-warmer act before a ramp and the TTL policies
// hold models warm through short troughs.
//
// All methods take explicit timestamps so decisions are a pure function
// of the observed trace — no wall clock, per swaplint's clockcheck.
type Predictor struct {
	mu     sync.Mutex
	models map[string]*modelDemand
}

const (
	demandWindow  = 10 * time.Minute                   // EWMA window for the recent-rate signal
	demandBucket  = 15 * time.Minute                   // time-of-day histogram bucket width
	bucketsPerDay = int(24 * time.Hour / demandBucket) // buckets per day
)

// modelDemand is the learned state for one model.
type modelDemand struct {
	last    time.Time // most recent arrival
	ewmaGap float64   // EWMA inter-arrival gap, seconds (0 = untrained)

	// Time-of-day histogram: per-bucket arrival counts folded across
	// days with an EWMA, so weekday ramps dominate and stale days decay.
	rate  []float64 // per-bucket folded daily count
	count []float64 // today's accumulating count
	day   []int     // absolute day index count[] belongs to
}

// histBlend weighs a finished day's bucket count against history when
// folding: high enough that two similar days converge quickly.
const histBlend = 0.5

// NewPredictor returns a predictor with a 10-minute recent-rate window
// and 15-minute time-of-day buckets.
func NewPredictor() *Predictor {
	return &Predictor{models: make(map[string]*modelDemand)}
}

// Observe records one request arrival for model at t. Call it for every
// offered request (admitted or shed): demand is what clients ask for,
// not what the fleet chose to serve.
func (p *Predictor) Observe(model string, t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	md := p.demandLocked(model)

	if !md.last.IsZero() {
		gap := t.Sub(md.last).Seconds()
		if gap > 0 {
			if md.ewmaGap == 0 {
				md.ewmaGap = gap
			} else {
				// Window-relative smoothing: a gap spanning the whole
				// window replaces the estimate; shorter gaps blend in
				// with a floor of 1/4 so a dense burst converges within
				// a few arrivals rather than a few windows.
				alpha := gap / demandWindow.Seconds()
				if alpha > 1 {
					alpha = 1
				} else if alpha < 0.25 {
					alpha = 0.25
				}
				md.ewmaGap += alpha * (gap - md.ewmaGap)
			}
		}
	}
	md.last = t

	b := bucketIndex(t)
	p.foldLocked(md, b, dayIndex(t))
	md.count[b]++
}

// Rate returns the predicted request rate (per second) for model at
// time at, which may be in the future. The historical time-of-day rate
// anchors the forecast; the recent EWMA rate lifts it when current
// traffic runs hotter than history, decaying with forecast distance.
func (p *Predictor) Rate(model string, at time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	md, ok := p.models[model]
	if !ok {
		return 0
	}
	b := bucketIndex(at)
	p.foldLocked(md, b, dayIndex(at))

	hist := md.rate[b] / demandBucket.Seconds()
	var recent float64
	if md.ewmaGap > 0 && !md.last.IsZero() {
		recent = 1 / md.ewmaGap
		// Decay the recent signal with distance from the last arrival:
		// it says nothing about the far side of the horizon.
		if dt := at.Sub(md.last); dt > 0 {
			recent *= math.Exp(-dt.Seconds() / demandWindow.Seconds())
		}
	}
	if recent > hist {
		return recent
	}
	return hist
}

// NextArrival returns the recent-rate signal as a point forecast: the
// model's last arrival plus its EWMA inter-arrival gap, and that gap.
// ok is false until two arrivals with a positive gap have been observed.
func (p *Predictor) NextArrival(model string) (at time.Time, gap time.Duration, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	md, found := p.models[model]
	if !found || md.ewmaGap <= 0 {
		return time.Time{}, 0, false
	}
	gap = time.Duration(md.ewmaGap * float64(time.Second))
	return md.last.Add(gap), gap, true
}

// ExpectedArrivals integrates the predicted rate over [from, to),
// bucket by bucket, returning the expected number of requests.
func (p *Predictor) ExpectedArrivals(model string, from, to time.Time) float64 {
	if !to.After(from) {
		return 0
	}
	var total float64
	for t := from; t.Before(to); {
		next := t.Truncate(demandBucket).Add(demandBucket)
		if next.After(to) {
			next = to
		}
		total += p.Rate(model, t) * next.Sub(t).Seconds()
		t = next
	}
	return total
}

// Trained reports whether the model's histogram has folded at least one
// whole day of history — i.e. the time-of-day signal is usable.
func (p *Predictor) Trained(model string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	md, ok := p.models[model]
	if !ok {
		return false
	}
	for _, r := range md.rate {
		if r > 0 {
			return true
		}
	}
	return false
}

// demandLocked returns (creating if needed) the model's state.
func (p *Predictor) demandLocked(model string) *modelDemand {
	md, ok := p.models[model]
	if !ok {
		md = &modelDemand{
			rate:  make([]float64, bucketsPerDay),
			count: make([]float64, bucketsPerDay),
			day:   make([]int, bucketsPerDay),
		}
		for i := range md.day {
			md.day[i] = -1
		}
		p.models[model] = md
	}
	return md
}

// foldLocked folds a bucket's accumulated count into its cross-day rate
// when the accumulation belongs to an earlier day than today.
func (p *Predictor) foldLocked(md *modelDemand, b, today int) {
	if md.day[b] == today {
		return
	}
	if md.day[b] >= 0 {
		if md.rate[b] == 0 {
			md.rate[b] = md.count[b]
		} else {
			md.rate[b] += histBlend * (md.count[b] - md.rate[b])
		}
		// Decay for every observed-but-empty day in between, so a model
		// that goes quiet stops being pre-warmed.
		for d := md.day[b] + 1; d < today; d++ {
			md.rate[b] *= 1 - histBlend
		}
	}
	md.count[b] = 0
	md.day[b] = today
}

// bucketIndex maps a timestamp to its time-of-day bucket.
func bucketIndex(t time.Time) int {
	dayOff := time.Duration(t.Hour())*time.Hour +
		time.Duration(t.Minute())*time.Minute +
		time.Duration(t.Second())*time.Second
	return int(dayOff / demandBucket)
}

// dayIndex returns an absolute day counter for t.
func dayIndex(t time.Time) int {
	return int(t.Unix() / 86400)
}
