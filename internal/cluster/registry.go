package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/metrics"
	"swapservellm/internal/openai"
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
	probe     *http.Client

	chaosInj *chaos.Injector
	trace    *chaos.Trace

	mu    sync.RWMutex
	nodes map[string]*Node
	order []string

	loop *simclock.Loop
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
	return &NodeRegistry{
		clock:     clock,
		reg:       reg,
		interval:  interval,
		missLimit: missLimit,
		probe:     &http.Client{Timeout: 5 * time.Second, Transport: simclock.Transport(clock)},
		nodes:     make(map[string]*Node),
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
	r.nodes[n.ID()] = n
	r.order = append(r.order, n.ID())
	sort.Strings(r.order)
}

// Node looks up a member by ID.
func (r *NodeRegistry) Node(id string) (*Node, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.nodes[id]
	return n, ok
}

// Nodes returns every member sorted by ID.
func (r *NodeRegistry) Nodes() []*Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Node, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.nodes[id])
	}
	return out
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
	r.reg.Counter("cluster_heartbeat_probes").Inc()
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
	url := n.URL()
	if url == "http://" || url == "" {
		return false
	}
	probe := openai.Client{BaseURL: url, HTTPClient: r.probe, Clock: r.clock}
	return probe.Healthy(context.Background())
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
	var healthy int64
	for _, n := range r.Nodes() {
		rep := n.Report()
		if n.State() == NodeHealthy {
			healthy++
		}
		id := n.ID()
		r.reg.Gauge("node_state_" + id).Set(float64(n.State()))
		r.reg.Gauge("node_load_" + id).Set(float64(rep.Load))
		r.reg.Gauge("node_swap_ins_" + id).Set(float64(rep.SwapIns))
		r.reg.Gauge("node_swap_outs_" + id).Set(float64(rep.SwapOuts))
		r.reg.Gauge("node_snapshot_ram_bytes_" + id).Set(float64(rep.SnapshotRAMBytes))
		r.reg.Gauge("node_free_gpu_bytes_" + id).Set(float64(rep.FreeGPUBytes))
		if rep.ChunkStore {
			// The chunk inventory the node advertises: deduplicated tier
			// footprints plus what content addressing is saving.
			r.reg.Gauge("node_chunk_host_bytes_" + id).Set(float64(rep.ChunkHostBytes))
			r.reg.Gauge("node_chunk_disk_bytes_" + id).Set(float64(rep.ChunkDiskBytes))
			r.reg.Gauge("node_chunk_dedup_saved_bytes_" + id).Set(float64(rep.ChunkDedupSavedBytes))
		}
	}
	r.reg.Gauge("cluster_nodes_healthy").Set(float64(healthy))
}
