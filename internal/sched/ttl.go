package sched

import (
	"sync"
	"time"
)

// TTLPolicy decides whether an idle backend's residency should be
// reclaimed. It is the one keep-alive seam: each node's reaper consults
// it (core.Options.TTL, defaulting to a FixedTTL of keep_alive_sec) and
// notifies it of evictions and of the accesses that follow them, so
// adaptive policies can learn from premature reclaims.
type TTLPolicy interface {
	// Name identifies the policy in metrics and experiment rows.
	Name() string
	// ShouldEvict reports whether a backend for model, idle for idleFor
	// at time now, may be swapped out.
	ShouldEvict(model string, idleFor time.Duration, now time.Time) bool
	// NoteEvict records that model was evicted at now.
	NoteEvict(model string, now time.Time)
	// NoteAccess records that model was demanded while not resident
	// (a reactive swap-in) at now.
	NoteAccess(model string, now time.Time)
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

// NoteEvict implements TTLPolicy.
func (f *FixedTTL) NoteEvict(model string, now time.Time) {}

// NoteAccess implements TTLPolicy.
func (f *FixedTTL) NoteAccess(model string, now time.Time) {}

// AdaptiveTTL adjusts each model's TTL from its post-eviction hit rate:
// a demand arriving shortly after an eviction (a "premature reclaim")
// doubles the model's TTL; an eviction that stays cold decays it back
// toward Base. Models with sticky demand earn long residency; one-shot
// models fall back quickly.
type AdaptiveTTL struct {
	// Base is the starting TTL for unseen models.
	Base time.Duration
	// Min/Max clamp the per-model TTL (defaults: Base/4 and 8×Base).
	Min, Max time.Duration
	// RefetchWindow classifies a post-eviction access as premature
	// (default: Base).
	RefetchWindow time.Duration

	mu        sync.Mutex
	ttl       map[string]time.Duration
	lastEvict map[string]time.Time
}

// NewAdaptiveTTL returns an adaptive policy around the base TTL.
func NewAdaptiveTTL(base time.Duration) *AdaptiveTTL {
	return &AdaptiveTTL{
		Base:          base,
		Min:           base / 4,
		Max:           8 * base,
		RefetchWindow: base,
		ttl:           make(map[string]time.Duration),
		lastEvict:     make(map[string]time.Time),
	}
}

// Name implements TTLPolicy.
func (a *AdaptiveTTL) Name() string { return "adaptive" }

// TTLFor returns the model's current TTL.
func (a *AdaptiveTTL) TTLFor(model string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ttlLocked(model)
}

func (a *AdaptiveTTL) ttlLocked(model string) time.Duration {
	if ttl, ok := a.ttl[model]; ok {
		return ttl
	}
	return a.Base
}

// ShouldEvict implements TTLPolicy.
func (a *AdaptiveTTL) ShouldEvict(model string, idleFor time.Duration, now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return idleFor >= a.ttlLocked(model)
}

// NoteEvict implements TTLPolicy: decay the TTL toward Min — if the
// eviction was wrong, the refetch that follows will correct it upward.
func (a *AdaptiveTTL) NoteEvict(model string, now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ttl := a.ttlLocked(model) * 3 / 4
	if ttl < a.Min {
		ttl = a.Min
	}
	a.ttl[model] = ttl
	a.lastEvict[model] = now
}

// NoteAccess implements TTLPolicy: a cold demand soon after an eviction
// means the TTL was too short — double it.
func (a *AdaptiveTTL) NoteAccess(model string, now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ev, ok := a.lastEvict[model]
	if !ok || now.Sub(ev) > a.RefetchWindow {
		return
	}
	ttl := a.ttlLocked(model) * 2
	if ttl > a.Max {
		ttl = a.Max
	}
	a.ttl[model] = ttl
	delete(a.lastEvict, model)
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

// NoteEvict implements TTLPolicy.
func (p *PredictiveTTL) NoteEvict(model string, now time.Time) {}

// NoteAccess implements TTLPolicy: the predictor already sees every
// arrival via Observe; nothing extra to learn here.
func (p *PredictiveTTL) NoteAccess(model string, now time.Time) {}
