// Package sched implements predictive SLO-aware scheduling for the
// swap-based fleet: priority classes with latency SLOs, a demand
// predictor over the diurnal workload, predictor-driven checkpoint
// prefetch and engine pre-warm, keep-alive/TTL eviction policies, and
// gateway admission control with load shedding. Every decision point
// (admit, prefetch, evict) is a declared chaos.Site, and all decision
// logic takes explicit timestamps or an injected simclock.Clock so the
// SLO ablation replays deterministically.
package sched

import (
	"sync"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/metrics"
	"swapservellm/internal/simclock"
)

// Prewarmer turns demand forecasts into checkpoint prefetch / engine
// pre-warm actions ahead of predicted ramps: each sweep it asks the
// predictor how many arrivals each model should see within the horizon
// and, above the threshold, asks the cluster (via the issue callback)
// to make the model warm somewhere. A pre-warm is scored a hit when a
// placement finds the model warm before the horizon expires, a miss
// otherwise — the misprediction signal the chaos soak exploits.
type Prewarmer struct {
	pred      *Predictor
	inj       *chaos.Injector
	reg       *metrics.Registry
	horizon   time.Duration
	interval  time.Duration
	threshold float64
	models    []string
	issue     func(model string) bool

	mu      sync.Mutex
	pending map[string]time.Time // model -> hit deadline

	loop *simclock.Loop
}

// PrewarmConfig assembles a Prewarmer.
type PrewarmConfig struct {
	// Predictor supplies forecasts (required).
	Predictor *Predictor
	// Models is the fixed set of models to watch.
	Models []string
	// Horizon is the forecast lookahead; Interval the sweep period.
	Horizon, Interval time.Duration
	// Threshold is the expected-arrivals trigger within the horizon.
	Threshold float64
	// Issue makes a model warm somewhere in the fleet, returning true
	// when a pre-warm was actually started (false: already warm or no
	// capacity). Required.
	Issue func(model string) bool
	// Registry receives prefetch hit/miss counters (may be nil).
	Registry *metrics.Registry
	// Chaos injects pre-warm suppression at sched.prefetch (may be nil).
	Chaos *chaos.Injector
}

// NewPrewarmer builds a pre-warmer; call Run to start its sweep loop,
// or drive Sweep directly from a virtual-time experiment.
func NewPrewarmer(cfg PrewarmConfig) *Prewarmer {
	models := append([]string(nil), cfg.Models...)
	return &Prewarmer{
		pred:      cfg.Predictor,
		inj:       cfg.Chaos,
		reg:       cfg.Registry,
		horizon:   cfg.Horizon,
		interval:  cfg.Interval,
		threshold: cfg.Threshold,
		models:    models,
		issue:     cfg.Issue,
		pending:   make(map[string]time.Time),
	}
}

// Run starts the sweep loop on clock; Halt stops it.
func (p *Prewarmer) Run(clock simclock.Clock) {
	p.loop = simclock.Every(clock, p.interval, func() { p.Sweep(clock.Now()) })
}

// Halt stops the sweep loop and waits for it to exit, shedding the run
// token while the loop goroutine drains. Safe to call repeatedly or
// before Run.
func (p *Prewarmer) Halt() { p.loop.Stop() }

// Sweep runs one pre-warm pass at time now. Models are visited in the
// fixed construction order so a sweep is deterministic.
func (p *Prewarmer) Sweep(now time.Time) {
	p.expire(now)
	for _, m := range p.models {
		p.mu.Lock()
		_, inFlight := p.pending[m]
		p.mu.Unlock()
		if inFlight {
			continue
		}
		expected := p.pred.ExpectedArrivals(m, now, now.Add(p.horizon))
		if expected < p.threshold {
			continue
		}
		// Chaos: a fired sched.prefetch suppresses the pre-warm the
		// predictor asked for — a forced misprediction.
		if out := p.inj.At(chaos.SiteSchedPrefetch); out.Err != nil {
			if p.reg != nil {
				p.reg.Counter("sched_prefetch_suppressed").Inc()
			}
			continue
		}
		if !p.issue(m) {
			continue
		}
		if p.reg != nil {
			p.reg.Counter("sched_prefetch_issued").Inc()
		}
		p.mu.Lock()
		p.pending[m] = now.Add(p.horizon)
		p.mu.Unlock()
	}
}

// NotePlacement records a placement outcome for model at now: a warm
// placement within a pending pre-warm's horizon scores a hit.
func (p *Prewarmer) NotePlacement(model string, warm bool, now time.Time) {
	p.expire(now)
	p.mu.Lock()
	deadline, ok := p.pending[model]
	if !ok || !warm || now.After(deadline) {
		p.mu.Unlock()
		return
	}
	delete(p.pending, model)
	p.mu.Unlock()
	if p.reg != nil {
		p.reg.Counter("sched_prefetch_hits").Inc()
	}
}

// expire retires pre-warms whose horizon passed with no warm placement.
func (p *Prewarmer) expire(now time.Time) {
	p.mu.Lock()
	var missed int
	for m, deadline := range p.pending {
		if now.After(deadline) {
			delete(p.pending, m)
			missed++
		}
	}
	p.mu.Unlock()
	if missed > 0 && p.reg != nil {
		p.reg.Counter("sched_prefetch_misses").Add(float64(missed))
	}
}
