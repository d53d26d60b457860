package sched

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/config"
	"swapservellm/internal/metrics"
)

// Admission is the gateway's per-class admission controller: a token
// bucket per class guarantees every class its configured share, and a
// queue-delay check sheds work whose predicted wait already exceeds its
// class SLO. Predicted wait is priority-aware — a class only waits
// behind work of equal or higher priority — so overload pressure sheds
// the lowest classes first while the guaranteed buckets keep even those
// from starving.
type Admission struct {
	inj *chaos.Injector
	reg *metrics.Registry

	mu      sync.Mutex
	classes map[string]*classState
	service float64 // EWMA service time, seconds
}

// classState is one class's runtime admission state.
type classState struct {
	cfg      config.SchedClass
	tokens   float64
	refilled time.Time
	inflight int
	// done counts finished requests and withinSLO those whose latency
	// met the class SLO: the SLO-attainment gauge is their ratio.
	done, withinSLO int

	// The class's metrics, each named once; nil without a registry.
	admitted, shed *metrics.Handle[metrics.Counter]
	latency        *metrics.Handle[metrics.Histogram]
	attainment     *metrics.Handle[metrics.Gauge]
}

// Decision is the outcome of one admission check.
type Decision struct {
	// Admit reports whether the request may proceed.
	Admit bool
	// Reason explains the outcome: "slack" (predicted wait within SLO),
	// "guaranteed" (token-bucket share), "shed" (wait over SLO, no
	// tokens), or "chaos" (injected misprediction flipped the call).
	Reason string
	// RetryAfter is the suggested client backoff for a shed: the time
	// until the class's bucket refills one token.
	RetryAfter time.Duration
}

// NewAdmission builds an admission controller for the declared classes.
// reg may be nil (no metrics); inj may be nil (no chaos).
func NewAdmission(cfg config.SchedCfg, reg *metrics.Registry, inj *chaos.Injector) (*Admission, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("sched: admission requires declared classes")
	}
	a := &Admission{inj: inj, reg: reg, classes: make(map[string]*classState, len(cfg.Classes))}
	for _, c := range cfg.Classes {
		st := &classState{cfg: c, tokens: c.Burst}
		if reg != nil {
			st.admitted = reg.CounterHandle("sched_admitted_" + c.Name)
			st.shed = reg.CounterHandle("sched_shed_" + c.Name)
			st.latency = reg.HistogramHandle("sched_latency_" + c.Name)
			st.attainment = reg.GaugeHandle("sched_slo_attainment_" + c.Name)
		}
		a.classes[c.Name] = st
	}
	return a, nil
}

// Classes returns the declared class names sorted by priority rank
// (most important first), ties broken by name.
func (a *Admission) Classes() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.classes))
	for name := range a.classes {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := a.classes[out[i]].cfg.Priority, a.classes[out[j]].cfg.Priority
		if pi != pj {
			return pi < pj
		}
		return out[i] < out[j]
	})
	return out
}

// SLOFor returns the declared SLO for a class (zero if unknown).
func (a *Admission) SLOFor(class string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st, ok := a.classes[class]; ok {
		return st.cfg.SLO()
	}
	return 0
}

// PredictedWait estimates the queue delay a new request of class would
// see: the in-flight work of every class at its priority or higher,
// costed at the EWMA service time. Lower classes are invisible to it —
// the priority-aware estimate that confines shedding to the bottom.
func (a *Admission) PredictedWait(class string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.classes[class]
	if !ok {
		return 0
	}
	var ahead int
	for _, other := range a.classes {
		if other.cfg.Priority <= st.cfg.Priority {
			ahead += other.inflight
		}
	}
	return time.Duration(float64(ahead) * a.service * float64(time.Second))
}

// Decide runs one admission check for class with the given predicted
// wait at now. Unknown classes are admitted (the gateway validates
// class names before calling). The chaos site sched.admit, when fired,
// inverts the decision — a deliberately mispredicted admission.
func (a *Admission) Decide(class string, predictedWait time.Duration, now time.Time) Decision {
	a.mu.Lock()
	st, ok := a.classes[class]
	if !ok {
		a.mu.Unlock()
		return Decision{Admit: true, Reason: "unclassed"}
	}
	d := a.decideLocked(st, predictedWait, now)
	a.mu.Unlock()

	if out := a.inj.At(chaos.SiteSchedAdmit); out.Err != nil {
		d.Admit = !d.Admit
		d.Reason = "chaos"
		if !d.Admit && d.RetryAfter == 0 {
			d.RetryAfter = time.Second
		}
	}
	if a.reg != nil {
		if d.Admit {
			st.admitted.Get().Inc()
		} else {
			st.shed.Get().Inc()
		}
	}
	return d
}

// decideLocked applies the admission policy proper.
func (a *Admission) decideLocked(st *classState, predictedWait time.Duration, now time.Time) Decision {
	// Refill the bucket lazily.
	if !st.refilled.IsZero() {
		st.tokens += now.Sub(st.refilled).Seconds() * st.cfg.RatePerSec
		if st.tokens > st.cfg.Burst {
			st.tokens = st.cfg.Burst
		}
	}
	st.refilled = now

	// Spare capacity first: while the predicted wait honours the SLO the
	// request rides free, preserving tokens for overload.
	if predictedWait <= st.cfg.SLO() {
		return Decision{Admit: true, Reason: "slack"}
	}
	// Guaranteed share: the bucket admits the class's configured rate
	// even when the system is saturated, so no class starves.
	if st.tokens >= 1 {
		st.tokens--
		return Decision{Admit: true, Reason: "guaranteed"}
	}
	wait := time.Duration((1 - st.tokens) / st.cfg.RatePerSec * float64(time.Second))
	return Decision{Reason: "shed", RetryAfter: wait}
}

// NoteStart records an admitted request of class entering service.
func (a *Admission) NoteStart(class string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st, ok := a.classes[class]; ok {
		st.inflight++
	}
}

// NoteDone records a request of class finishing with the given
// end-to-end latency, updating the EWMA service-time estimate, the
// per-class latency histogram, and the class's SLO-attainment gauge.
func (a *Admission) NoteDone(class string, latency time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.classes[class]
	if !ok {
		return
	}
	if st.inflight > 0 {
		st.inflight--
	}
	const alpha = 0.2
	if a.service == 0 {
		a.service = latency.Seconds()
	} else {
		a.service += alpha * (latency.Seconds() - a.service)
	}
	st.done++
	if latency <= st.cfg.SLO() {
		st.withinSLO++
	}
	if a.reg == nil {
		return
	}
	st.latency.Get().Observe(latency)
	st.attainment.Get().Set(float64(st.withinSLO) / float64(st.done))
}
