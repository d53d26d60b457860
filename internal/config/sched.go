package config

import (
	"errors"
	"fmt"
	"time"
)

// SchedClass declares one priority class for the predictive scheduler:
// an SLO target, a guaranteed admission share (token bucket), and a
// priority rank used by queue-delay load shedding.
type SchedClass struct {
	// Name is the class identifier models and request headers refer to.
	Name string `json:"name"`
	// Priority ranks classes; 0 is the most important. Shedding pressure
	// lands on higher numbers (lower priority) first because their
	// predicted wait includes every higher class's in-flight work.
	Priority int `json:"priority"`
	// SLOSec is the class's latency SLO in simulated seconds: a request
	// is admitted without spending a token while the predicted wait is
	// within this budget, and counted as attained when its latency is.
	SLOSec float64 `json:"slo_sec"`
	// RatePerSec is the class's guaranteed admission rate: the token
	// bucket refill. Even under full overload the class is admitted at
	// this rate, so no class starves.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the token-bucket depth (default: 2×RatePerSec, min 1).
	Burst float64 `json:"burst,omitempty"`
}

// SLO returns the class SLO as a Duration.
func (c SchedClass) SLO() time.Duration {
	return time.Duration(c.SLOSec * float64(time.Second))
}

// SchedCfg is the predictive-scheduling section of a cluster
// configuration. An empty Classes list disables the subsystem entirely
// (the fleet stays purely reactive, as before).
type SchedCfg struct {
	// Classes declares the priority classes. Empty disables scheduling.
	Classes []SchedClass `json:"classes,omitempty"`
	// DefaultClass is assigned to models (and requests) that do not name
	// one. Defaults to the lowest-priority declared class.
	DefaultClass string `json:"default_class,omitempty"`
	// Admission enables gateway admission control and load shedding.
	Admission bool `json:"admission,omitempty"`
	// Prewarm enables predictive checkpoint prefetch / engine pre-warm
	// ahead of forecast ramps.
	Prewarm bool `json:"prewarm,omitempty"`
	// PrewarmHorizonSec is how far ahead the pre-warmer looks for
	// demand, in simulated seconds (default 300).
	PrewarmHorizonSec float64 `json:"prewarm_horizon_sec,omitempty"`
	// PrewarmIntervalSec is the pre-warm sweep interval in simulated
	// seconds (default 60).
	PrewarmIntervalSec float64 `json:"prewarm_interval_sec,omitempty"`
	// PrewarmThreshold is the expected number of arrivals within the
	// horizon that triggers a pre-warm (default 0.5).
	PrewarmThreshold float64 `json:"prewarm_threshold,omitempty"`
	// TTLPolicy selects the keep-alive eviction policy consulted by the
	// node reapers: "fixed" (plain idle TTL) or "predictive"
	// (demand-predictor informed). Empty keeps the reactive
	// keep_alive_sec reaper unchanged.
	TTLPolicy string `json:"ttl_policy,omitempty"`
	// TTLSec is the TTL of the fixed policy in simulated seconds
	// (default: the global keep_alive_sec, else 300).
	TTLSec float64 `json:"ttl_sec,omitempty"`
}

// Enabled reports whether the scheduling subsystem is configured.
func (s *SchedCfg) Enabled() bool { return len(s.Classes) > 0 }

// PrewarmHorizon returns the pre-warm lookahead as a Duration.
func (s *SchedCfg) PrewarmHorizon() time.Duration {
	return time.Duration(s.PrewarmHorizonSec * float64(time.Second))
}

// PrewarmInterval returns the pre-warm sweep interval as a Duration.
func (s *SchedCfg) PrewarmInterval() time.Duration {
	return time.Duration(s.PrewarmIntervalSec * float64(time.Second))
}

// TTL returns the base TTL as a Duration.
func (s *SchedCfg) TTL() time.Duration {
	return time.Duration(s.TTLSec * float64(time.Second))
}

// Class returns the declared class with the given name.
func (s *SchedCfg) Class(name string) (SchedClass, bool) {
	for _, c := range s.Classes {
		if c.Name == name {
			return c, true
		}
	}
	return SchedClass{}, false
}

// validate checks the scheduling section and fills defaults in place.
// fallbackTTLSec seeds TTLSec when unset (the global keep_alive_sec).
func (s *SchedCfg) validate(fallbackTTLSec float64) error {
	if !s.Enabled() {
		return nil
	}
	seen := make(map[string]bool, len(s.Classes))
	lowest := 0
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Name == "" {
			return fmt.Errorf("config: scheduling classes[%d] missing name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("config: duplicate scheduling class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Priority < 0 {
			return fmt.Errorf("config: class %q priority must be non-negative", c.Name)
		}
		if c.SLOSec <= 0 {
			return fmt.Errorf("config: class %q slo_sec must be positive", c.Name)
		}
		if c.RatePerSec <= 0 {
			return fmt.Errorf("config: class %q rate_per_sec must be positive", c.Name)
		}
		if c.Burst < 0 {
			return fmt.Errorf("config: class %q burst must be non-negative", c.Name)
		}
		if c.Burst == 0 {
			c.Burst = 2 * c.RatePerSec
			if c.Burst < 1 {
				c.Burst = 1
			}
		}
		if c.Priority > s.Classes[lowest].Priority {
			lowest = i
		}
	}
	if s.DefaultClass == "" {
		s.DefaultClass = s.Classes[lowest].Name
	} else if !seen[s.DefaultClass] {
		return fmt.Errorf("config: default_class %q not declared", s.DefaultClass)
	}
	switch s.TTLPolicy {
	case "", "fixed", "predictive":
	default:
		return fmt.Errorf("config: unknown ttl_policy %q (want fixed or predictive)", s.TTLPolicy)
	}
	if fallbackTTLSec == 0 {
		fallbackTTLSec = 300
	}
	return errors.Join(
		nonNegative(&s.PrewarmHorizonSec, 300, "prewarm_horizon_sec"),
		nonNegative(&s.PrewarmIntervalSec, 60, "prewarm_interval_sec"),
		nonNegative(&s.PrewarmThreshold, 0.5, "prewarm_threshold"),
		nonNegative(&s.TTLSec, fallbackTTLSec, "ttl_sec"),
	)
}
