package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/models"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/sched"
	"swapservellm/internal/simclock"
)

// schedState is the cluster's predictive-scheduling runtime: the demand
// predictor fed by every gateway arrival, the admission controller, the
// pre-warmer, and the TTL policy shared with every node's reaper. nil
// when the configuration declares no classes — the fleet then behaves
// exactly as before.
type schedState struct {
	cfg     config.SchedCfg
	pred    *sched.Predictor
	adm     *sched.Admission // nil when admission is off
	pw      *sched.Prewarmer // nil when prewarm is off
	ttl     sched.TTLPolicy  // nil when ttl_policy is unset
	classOf map[string]string
}

// buildSched assembles the scheduling runtime from a validated
// configuration. Called before the nodes are constructed so the TTL
// policy can be handed to each node's reaper.
func buildSched(cfg config.Cluster, catalog *models.Catalog, c *Cluster) (*schedState, error) {
	sc := cfg.Scheduling
	if !sc.Enabled() {
		return nil, nil
	}
	st := &schedState{
		cfg:     sc,
		pred:    sched.NewPredictor(),
		classOf: make(map[string]string),
	}

	// Model → class and model → engine maps from the node lists (a model
	// replicated across nodes must already agree on its class because
	// class is part of the model entry).
	engines := make(map[string]perfmodel.EngineKind)
	for _, n := range cfg.Nodes {
		for _, m := range n.Models {
			cl := m.Class
			if cl == "" {
				cl = sc.DefaultClass
			}
			if prev, ok := st.classOf[m.Name]; ok && prev != cl {
				return nil, fmt.Errorf("cluster: model %q declared with classes %q and %q", m.Name, prev, cl)
			}
			st.classOf[m.Name] = cl
			engines[m.Name] = perfmodel.EngineKind(m.Engine)
		}
	}

	tb, _ := perfmodel.TestbedByName(cfg.Testbed)
	restore := func(model string) time.Duration {
		m, ok := catalog.Lookup(model)
		if !ok {
			return 0
		}
		wb := m.WeightBytes()
		return tb.CheckpointRestore(wb, wb, engines[model])
	}

	// The TTL policy is shared across nodes: demand is fleet-wide, and a
	// model name means the same replica set everywhere.
	switch sc.TTLPolicy {
	case "fixed":
		st.ttl = &sched.FixedTTL{TTL: sc.TTL()}
	case "predictive":
		st.ttl = sched.NewPredictiveTTL(st.pred, restore)
	}

	if sc.Admission {
		adm, err := sched.NewAdmission(sc, c.reg, c.chaosInj)
		if err != nil {
			return nil, err
		}
		st.adm = adm
	}

	if sc.Prewarm {
		names := make([]string, 0, len(st.classOf))
		for name := range st.classOf {
			names = append(names, name)
		}
		sort.Strings(names)
		st.pw = sched.NewPrewarmer(sched.PrewarmConfig{
			Predictor: st.pred,
			Models:    names,
			Horizon:   sc.PrewarmHorizon(),
			Interval:  sc.PrewarmInterval(),
			Threshold: sc.PrewarmThreshold,
			Issue:     c.prewarmModel,
			Registry:  c.reg,
			Chaos:     c.chaosInj,
		})
	}
	return st, nil
}

// classFor resolves a request's priority class: an explicit
// X-Priority-Class header wins (per-tenant override, validated against
// the declared classes), then the model's configured class, then the
// endpoint table's class tag (honored only when the deployment declares
// that class), then the default. Returns "" when scheduling is
// disabled.
func (c *Cluster) classFor(model, override, endpointClass string) (string, error) {
	if c.sched == nil {
		return "", nil
	}
	if override != "" {
		if _, ok := c.sched.cfg.Class(override); !ok {
			return "", fmt.Errorf("unknown priority class %q", override)
		}
		return override, nil
	}
	if cl, ok := c.sched.classOf[model]; ok {
		return cl, nil
	}
	if endpointClass != "" {
		if _, ok := c.sched.cfg.Class(endpointClass); ok {
			return endpointClass, nil
		}
	}
	return c.sched.cfg.DefaultClass, nil
}

// prewarmModel makes model warm somewhere: if no candidate already has
// it warm, the placement policy picks a node and the swap-in runs
// asynchronously there. Returns true when a pre-warm was started.
func (c *Cluster) prewarmModel(model string) bool {
	cands := c.registry.Candidates(model)
	if len(cands) == 0 {
		return false
	}
	for _, cand := range cands {
		if cand.Presence == PresenceWarm {
			return false
		}
	}
	idx, ok := c.policy.Select(model, cands)
	if !ok || idx < 0 || idx >= len(cands) {
		return false
	}
	n, ok := c.registry.Node(cands[idx].NodeID)
	if !ok {
		return false
	}
	b, ok := n.Server().Backend(model)
	if !ok {
		return false
	}
	simclock.GateFor(c.clock).Go(func() {
		ctx := c.traceCtx(context.Background())
		ctx, span := obs.Start(ctx, "sched.prewarm",
			obs.String("model", model), obs.String("node", n.ID()))
		err := n.Server().Scheduler().EnsureRunning(ctx, b)
		span.EndErr(err)
	})
	return true
}

// Sched exposes scheduling internals for tests and tooling: the demand
// predictor, admission controller, and pre-warmer (each may be nil).
func (c *Cluster) Sched() (*sched.Predictor, *sched.Admission, *sched.Prewarmer) {
	if c.sched == nil {
		return nil, nil, nil
	}
	return c.sched.pred, c.sched.adm, c.sched.pw
}
