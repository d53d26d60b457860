package sched

import "time"

// TTLPolicy decides whether an idle backend's residency should be
// reclaimed. It is the one keep-alive seam: each node's reaper consults
// it (core.Options.TTL, defaulting to a FixedTTL of keep_alive_sec).
type TTLPolicy interface {
	// Name identifies the policy in metrics and experiment rows.
	Name() string
	// ShouldEvict reports whether a backend for model, idle for idleFor
	// at time now, may be swapped out.
	ShouldEvict(model string, idleFor time.Duration, now time.Time) bool
}

// FixedTTL evicts after a constant idle window — llama-swap's `ttl`
// auto-unload and the node reaper's keep_alive_sec default.
type FixedTTL struct {
	TTL time.Duration
}

// Name implements TTLPolicy.
func (f *FixedTTL) Name() string { return "fixed" }

// ShouldEvict implements TTLPolicy.
func (f *FixedTTL) ShouldEvict(model string, idleFor time.Duration, now time.Time) bool {
	return idleFor >= f.TTL
}

// PredictiveTTL keeps a model resident while the demand predictor
// expects its next request to arrive before a cold swap-in would pay
// off: evicting is only worth it when the predicted gap exceeds the
// model's restore cost by a slack factor (Torpor's latency-aware
// keep-alive, driven by our predictor instead of a static profile).
type PredictiveTTL struct {
	// Predictor supplies per-model rate forecasts.
	Predictor *Predictor
	// Restore estimates a model's cold swap-in latency.
	Restore func(model string) time.Duration
	// Slack scales the restore cost into the minimum predicted gap that
	// justifies eviction (default 4).
	Slack float64
	// Floor is the minimum idle time before eviction is considered at
	// all, guarding against transient gaps (default 30s).
	Floor time.Duration
	// Ceiling force-evicts past this idle time regardless of forecast,
	// bounding the damage of an overconfident predictor (default 1h).
	Ceiling time.Duration
}

// NewPredictiveTTL returns a predictor-informed policy.
func NewPredictiveTTL(p *Predictor, restore func(model string) time.Duration) *PredictiveTTL {
	return &PredictiveTTL{
		Predictor: p,
		Restore:   restore,
		Slack:     4,
		Floor:     30 * time.Second,
		Ceiling:   time.Hour,
	}
}

// Name implements TTLPolicy.
func (p *PredictiveTTL) Name() string { return "predictive" }

// ShouldEvict implements TTLPolicy.
func (p *PredictiveTTL) ShouldEvict(model string, idleFor time.Duration, now time.Time) bool {
	if idleFor < p.Floor {
		return false
	}
	if idleFor >= p.Ceiling {
		return true
	}
	rate := p.Predictor.Rate(model, now)
	if rate <= 0 {
		return true // no forecast demand: reclaim
	}
	gap := time.Duration(float64(time.Second) / rate)
	restore := time.Duration(0)
	if p.Restore != nil {
		restore = p.Restore(model)
	}
	return gap > time.Duration(p.Slack*float64(restore))
}
