package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/core"
	"swapservellm/internal/metrics"
	"swapservellm/internal/simclock"
)

// NodeRegistry tracks cluster membership and health. A background loop
// probes every node's /health endpoint on the heartbeat interval
// (simulated time); a node that misses missLimit consecutive probes
// transitions to down, and a down node whose probe succeeds again
// rejoins as healthy. The gateway additionally reports proxy-level
// connection failures here so a dead node is fenced before the next
// heartbeat fires (passive failure detection).
type NodeRegistry struct {
	clock     simclock.Clock
	reg       *metrics.Registry
	interval  time.Duration
	missLimit int
	rt        http.RoundTripper // the clock's transport, driven directly
	probe     *http.Client      // nil under Virtual; see NewNodeRegistry

	chaosInj *chaos.Injector
	trace    *chaos.Trace

	mu    sync.RWMutex
	nodes map[string]*Node
	// sorted holds every member sorted by ID. It is copy-on-write: Add
	// builds a new slice under mu, so a slice Nodes handed out is never
	// mutated and callers range over it without a copy.
	sorted []*Node

	loop *simclock.Loop

	// The per-sweep metrics, resolved once.
	probes     *metrics.Handle[metrics.Counter] // cluster_heartbeat_probes
	healthyNow *metrics.Handle[metrics.Gauge]   // cluster_nodes_healthy

	// pubMu serializes publish, whose inventory buffer inv is reused by
	// every report it samples.
	pubMu sync.Mutex
	inv   []core.ModelInventory
}

// SetChaos installs (or removes) the fault injector. Every health probe
// consults chaos.SiteHeartbeat: a fired fault makes the probe report
// the node dead regardless of the HTTP result, so a burst of firings
// simulates a crashed node and the probes succeeding again afterwards
// simulate its restart.
func (r *NodeRegistry) SetChaos(in *chaos.Injector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chaosInj = in
}

// SetTrace installs the transition audit log on every registered node
// (and nodes added later).
func (r *NodeRegistry) SetTrace(t *chaos.Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		n.trace = t
	}
	r.trace = t
}

// NewNodeRegistry builds a registry; interval is in simulated time.
func NewNodeRegistry(clock simclock.Clock, reg *metrics.Registry, interval time.Duration, missLimit int) *NodeRegistry {
	if missLimit <= 0 {
		missLimit = 3
	}
	// A probe over a real socket needs a wall-clock timeout. Under
	// Virtual the probe runs in-process, where a wall-clock timer would
	// make a virtual-time run depend on host speed; the clock's deadlock
	// watchdog bounds it instead.
	var probe *http.Client
	if _, virtual := clock.(*simclock.Virtual); !virtual {
		probe = &http.Client{Timeout: 5 * time.Second}
	}
	return &NodeRegistry{
		clock:      clock,
		reg:        reg,
		interval:   interval,
		missLimit:  missLimit,
		rt:         simclock.Transport(clock),
		probe:      probe,
		nodes:      make(map[string]*Node),
		probes:     reg.CounterHandle("cluster_heartbeat_probes"),
		healthyNow: reg.GaugeHandle("cluster_nodes_healthy"),
	}
}

// Add registers a node (state joining until its first heartbeat).
func (r *NodeRegistry) Add(n *Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.nodes[n.ID()]; dup {
		return
	}
	n.trace = r.trace
	n.metrics = newNodeMetrics(r.reg, n.ID())
	r.nodes[n.ID()] = n
	sorted := make([]*Node, 0, len(r.sorted)+1)
	sorted = append(append(sorted, r.sorted...), n)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	r.sorted = sorted
}

// Node looks up a member by ID.
func (r *NodeRegistry) Node(id string) (*Node, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.nodes[id]
	return n, ok
}

// Nodes returns every member sorted by ID. The slice is shared and
// read-only: callers range over it and must not modify it.
func (r *NodeRegistry) Nodes() []*Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sorted
}

// Start launches the heartbeat loop. It probes once synchronously so
// nodes that are already serving join immediately.
func (r *NodeRegistry) Start() {
	r.Sweep()
	r.loop = simclock.Every(r.clock, r.interval, r.Sweep)
}

// Stop halts the heartbeat loop and waits for it to exit, shedding the
// run token while the loop goroutine drains. Safe to call repeatedly or
// before Start.
func (r *NodeRegistry) Stop() { r.loop.Stop() }

// Sweep probes every node once and applies the state machine. Exported
// so tests (and the gateway after a passive failure report) can force a
// re-evaluation without waiting for the interval.
func (r *NodeRegistry) Sweep() {
	for _, n := range r.Nodes() {
		r.probeNode(n)
	}
	r.publish()
}

// probeNode performs one health check and advances n's state machine.
func (r *NodeRegistry) probeNode(n *Node) {
	r.probes.Get().Inc()
	alive := r.healthy(n)
	switch {
	case alive:
		n.missed.Store(0)
		switch n.State() {
		case NodeJoining:
			if n.transition(NodeHealthy) {
				r.reg.Counter("cluster_node_joins").Inc()
			}
		case NodeDown:
			if n.transition(NodeHealthy) {
				r.reg.Counter("cluster_node_rejoins").Inc()
			}
		}
	default:
		if n.missed.Add(1) >= int32(r.missLimit) && n.State() != NodeDown {
			if n.transition(NodeDown) {
				r.reg.Counter("cluster_node_downs").Inc()
			}
		}
	}
}

// healthy performs the HTTP probe against the node router. An injected
// heartbeat fault makes the probe report the node dead.
func (r *NodeRegistry) healthy(n *Node) bool {
	r.mu.RLock()
	in := r.chaosInj
	r.mu.RUnlock()
	if in.At(chaos.SiteHeartbeat).Err != nil {
		return false
	}
	req := n.healthRequest()
	if req == nil {
		return false
	}
	var resp *http.Response
	var err error
	if r.probe != nil {
		//swaplint:block reason=off a Virtual clock the probe is a socket round trip bounded by the client's 5 s timeout
		resp, err = r.probe.Do(req)
	} else {
		//swaplint:block reason=under a Virtual clock the probe runs on simclock's in-process transport, parked in a gate BlockOn until the registered handler answers
		resp, err = simclock.Send(r.rt, req)
	}
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ReportFailure records a proxy-level connection failure against a
// node: the gateway observed it dead mid-request, so it is fenced
// immediately rather than after missLimit heartbeat intervals. The next
// successful probe still brings it back.
func (r *NodeRegistry) ReportFailure(id string) {
	n, ok := r.Node(id)
	if !ok {
		return
	}
	if n.State() != NodeDown && !r.healthy(n) {
		n.missed.Store(int32(r.missLimit))
		if n.transition(NodeDown) {
			r.reg.Counter("cluster_node_downs").Inc()
		}
		r.publish()
	}
}

// Drain moves a healthy node to draining: in-flight work completes but
// the placement engine stops offering it.
func (r *NodeRegistry) Drain(id string) error {
	n, ok := r.Node(id)
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownNode, id)
	}
	if n.State() == NodeHealthy {
		n.transition(NodeDraining)
	}
	return nil
}

// Undrain returns a draining node to healthy.
func (r *NodeRegistry) Undrain(id string) error {
	n, ok := r.Node(id)
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownNode, id)
	}
	if n.State() == NodeDraining {
		n.transition(NodeHealthy)
	}
	return nil
}

// Candidates builds the placement view for a model: every healthy node
// that deploys it, sorted by node ID. Nodes in joining, draining, or
// down states are excluded.
func (r *NodeRegistry) Candidates(model string) []Candidate {
	var out []Candidate
	for _, n := range r.Nodes() {
		if n.State() != NodeHealthy {
			continue
		}
		pres, deployed := n.presence(model)
		if !deployed {
			continue
		}
		out = append(out, Candidate{
			NodeID:        n.ID(),
			Presence:      pres,
			Load:          n.load(),
			FreeGPUBytes:  n.srv.GPUFree(),
			HostChunkFrac: n.chunkFrac(model),
		})
	}
	return out
}

// publish refreshes the per-node gauges after a sweep or state change.
func (r *NodeRegistry) publish() {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	var healthy int64
	for _, n := range r.Nodes() {
		rep := n.report(r.inv[:0])
		r.inv = rep.Models
		if n.State() == NodeHealthy {
			healthy++
		}
		m := n.metrics
		m.state.Get().Set(float64(n.State()))
		m.load.Get().Set(float64(rep.Load))
		m.swapIns.Get().Set(float64(rep.SwapIns))
		m.swapOuts.Get().Set(float64(rep.SwapOuts))
		m.snapshotRAM.Get().Set(float64(rep.SnapshotRAMBytes))
		m.freeGPU.Get().Set(float64(rep.FreeGPUBytes))
		if rep.ChunkStore {
			// The chunk inventory the node advertises: deduplicated tier
			// footprints plus what content addressing is saving.
			m.chunkHost.Get().Set(float64(rep.ChunkHostBytes))
			m.chunkDisk.Get().Set(float64(rep.ChunkDiskBytes))
			m.chunkDedupSaved.Get().Set(float64(rep.ChunkDedupSavedBytes))
		}
	}
	r.healthyNow.Get().Set(float64(healthy))
}
