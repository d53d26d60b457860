// Package cluster federates multiple SwapServeLLM nodes — each a full
// core.Server with its own simulated GPU topology, engines, and
// snapshot store — behind one OpenAI-compatible gateway. It adds the
// fleet-scale mechanisms the single-node system cannot express: a node
// registry with heartbeats and a node state machine, a pluggable
// placement engine (locality-first routing to nodes already holding a
// warm backend or snapshot, following ServerlessLLM's locality-aware
// scheduling), gateway-level failover that retries a request on another
// node when its first node dies mid-stream or reports overload, and a
// rebalancer that migrates cold snapshot images from hot nodes to idle
// ones using the existing checkpoint/storage cost models.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"

	"swapservellm/internal/chaos"
	"swapservellm/internal/core"
	"swapservellm/internal/metrics"
	"swapservellm/internal/simclock"
)

// NodeState is a cluster member's lifecycle state.
type NodeState int32

// Node states: joining → healthy ⇄ down, healthy → draining.
const (
	// NodeJoining: the node's backends are initializing; it receives no
	// traffic until its first successful heartbeat.
	NodeJoining NodeState = iota
	// NodeHealthy: heartbeats are current; the node is placeable.
	NodeHealthy
	// NodeDraining: the node finishes in-flight work but receives no new
	// placements (operator-initiated, e.g. ahead of maintenance).
	NodeDraining
	// NodeDown: heartbeats missed (or a proxy attempt failed hard); the
	// node is skipped until probes succeed again.
	NodeDown
)

// String returns the lowercase state name.
func (s NodeState) String() string {
	switch s {
	case NodeJoining:
		return "joining"
	case NodeHealthy:
		return "healthy"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Node is one cluster member: a full single-node SwapServeLLM
// deployment plus the cluster-side bookkeeping (state machine, missed
// heartbeats).
type Node struct {
	id  string
	srv *core.Server

	// state advances only via transition (legal-edge CAS + trace record)
	// after the initial Store in newNode.
	state  atomic.Int32
	missed atomic.Int32

	// trace, when set, receives every committed state transition as a
	// "node" event for invariant checking.
	trace *chaos.Trace

	// snapshotCapBytes mirrors the node's host snapshot cap so the
	// rebalancer can compute RAM pressure without re-deriving config.
	snapshotCapBytes int64

	// metrics holds the node's per-node metric handles, built when the
	// registry adds it.
	metrics *nodeMetrics

	// health is the registry's /health probe of the node, built once per
	// endpoint (see healthRequest).
	health atomic.Pointer[healthProbe]
}

// healthProbe is a node's /health request and the endpoint it was
// built on.
type healthProbe struct {
	base *url.URL
	req  *http.Request
}

// healthRequest returns the /health request of the node's router, or
// nil before the router listens. Its context is Background, so every
// probe sends the same request; a transport only reads it.
func (n *Node) healthRequest() *http.Request {
	base := n.srv.Endpoint()
	if base == nil {
		return nil
	}
	if h := n.health.Load(); h != nil && h.base == base {
		return h.req
	}
	req := simclock.NewRequest(context.Background(), http.MethodGet, base, "/health", nil, nil)
	n.health.Store(&healthProbe{base: base, req: req})
	return req
}

// nodeMetrics are one node's metrics, each named once: the registry's
// gauges, which every heartbeat sweep refreshes, and the gateway's
// first-placement counter.
type nodeMetrics struct {
	state, load, swapIns, swapOuts, snapshotRAM, freeGPU *metrics.Handle[metrics.Gauge]
	chunkHost, chunkDisk, chunkDedupSaved                *metrics.Handle[metrics.Gauge]
	placements                                           *metrics.Handle[metrics.Counter]
}

// newNodeMetrics names node id's metrics in reg.
func newNodeMetrics(reg *metrics.Registry, id string) *nodeMetrics {
	return &nodeMetrics{
		state:           reg.GaugeHandle("node_state_" + id),
		load:            reg.GaugeHandle("node_load_" + id),
		swapIns:         reg.GaugeHandle("node_swap_ins_" + id),
		swapOuts:        reg.GaugeHandle("node_swap_outs_" + id),
		snapshotRAM:     reg.GaugeHandle("node_snapshot_ram_bytes_" + id),
		freeGPU:         reg.GaugeHandle("node_free_gpu_bytes_" + id),
		chunkHost:       reg.GaugeHandle("node_chunk_host_bytes_" + id),
		chunkDisk:       reg.GaugeHandle("node_chunk_disk_bytes_" + id),
		chunkDedupSaved: reg.GaugeHandle("node_chunk_dedup_saved_bytes_" + id),
		placements:      reg.CounterHandle("placement_node_" + id),
	}
}

// newNode wraps a built (not yet started) server.
func newNode(id string, srv *core.Server, snapshotCapBytes int64) *Node {
	n := &Node{id: id, srv: srv, snapshotCapBytes: snapshotCapBytes}
	n.state.Store(int32(NodeJoining))
	return n
}

// ID returns the node's cluster-unique name.
func (n *Node) ID() string { return n.id }

// Server exposes the underlying deployment (for tests and tools).
func (n *Node) Server() *core.Server { return n.srv }

// URL returns the node router's base URL (empty before start).
func (n *Node) URL() string { return n.srv.URL() }

// State returns the node's lifecycle state.
func (n *Node) State() NodeState { return NodeState(n.state.Load()) }

// legalNodeEdges is the registry state machine: the only transitions a
// member may take. Down nodes must rejoin through healthy; joining
// nodes cannot drain.
var legalNodeEdges = map[NodeState][]NodeState{
	NodeJoining:  {NodeHealthy, NodeDown},
	NodeHealthy:  {NodeDraining, NodeDown},
	NodeDraining: {NodeHealthy, NodeDown},
	NodeDown:     {NodeHealthy},
}

// legalTransition reports whether from -> to is an allowed edge
// (same-state is a legal no-op).
func legalTransition(from, to NodeState) bool {
	if from == to {
		return true
	}
	for _, next := range legalNodeEdges[from] {
		if next == to {
			return true
		}
	}
	return false
}

// transition moves the node to the target state if the edge is legal,
// reporting whether the state is now the target. Illegal requests are
// rejected without touching the state. A CAS loop makes concurrent
// probe/drain/failure paths race-safe: each committed step is
// individually legal and recorded in the trace.
func (n *Node) transition(to NodeState) bool {
	for {
		cur := NodeState(n.state.Load())
		if cur == to {
			return true
		}
		if !legalTransition(cur, to) {
			return false
		}
		if n.state.CompareAndSwap(int32(cur), int32(to)) {
			n.trace.Record("node", n.id, cur.String(), to.String())
			return true
		}
	}
}

// Report is a node's capacity/utilization report: what the registry
// records on each heartbeat and what placement decisions consume.
type Report struct {
	ID    string `json:"id"`
	State string `json:"state"`
	URL   string `json:"url"`
	// Load is the outstanding work across all backends: queued plus
	// dequeued plus in-flight requests.
	Load int `json:"load"`
	// FreeGPUBytes / TotalGPUBytes describe device capacity.
	FreeGPUBytes  int64 `json:"free_gpu_bytes"`
	TotalGPUBytes int64 `json:"total_gpu_bytes"`
	// SnapshotRAMBytes is host memory held by checkpoint images;
	// SnapshotCapBytes is the configured cap (0 = unlimited).
	SnapshotRAMBytes int64 `json:"snapshot_ram_bytes"`
	SnapshotCapBytes int64 `json:"snapshot_cap_bytes,omitempty"`
	// SwapIns / SwapOuts total hot-swap operations across backends.
	SwapIns  int64 `json:"swap_ins"`
	SwapOuts int64 `json:"swap_outs"`
	// ChunkStore reports whether the node runs the content-addressed
	// checkpoint store; the chunk fields below are meaningful only then.
	ChunkStore bool `json:"chunk_store,omitempty"`
	// ChunkHostBytes / ChunkDiskBytes are the store's physical
	// (deduplicated) tier footprints — the chunk inventory the registry
	// advertises for peer-fetch and placement decisions.
	ChunkHostBytes int64 `json:"chunk_host_bytes,omitempty"`
	ChunkDiskBytes int64 `json:"chunk_disk_bytes,omitempty"`
	// ChunkDedupSavedBytes is logical-minus-unique manifest bytes: what
	// content addressing is currently saving on this node.
	ChunkDedupSavedBytes int64 `json:"chunk_dedup_saved_bytes,omitempty"`
	// Models is the node-local backend/snapshot inventory.
	Models []core.ModelInventory `json:"models"`
}

// Report samples the node's current capacity, load, and inventory.
func (n *Node) Report() Report { return n.report(nil) }

// report is Report with the inventory appended to inv: a caller that
// reads the report before its next one can hand the last report's
// Models back.
func (n *Node) report(inv []core.ModelInventory) Report {
	inv = n.srv.AppendInventory(inv)
	rep := Report{
		ID:               n.id,
		State:            n.State().String(),
		URL:              n.URL(),
		FreeGPUBytes:     n.srv.GPUFree(),
		TotalGPUBytes:    n.srv.GPUTotal(),
		SnapshotRAMBytes: n.srv.Driver().HostUsed(),
		SnapshotCapBytes: n.snapshotCapBytes,
		Models:           inv,
	}
	for _, mi := range inv {
		rep.Load += mi.Load()
	}
	for _, b := range n.srv.Backends() {
		in, out := b.SwapCounts()
		rep.SwapIns += in
		rep.SwapOuts += out
	}
	if st := n.srv.CkptStore(); st != nil {
		stats := st.Stats()
		rep.ChunkStore = true
		rep.ChunkHostBytes = stats.HostBytes
		rep.ChunkDiskBytes = stats.DiskBytes
		rep.ChunkDedupSavedBytes = stats.LogicalBytes - stats.UniqueBytes
	}
	return rep
}

// chunkFrac returns the fraction of the model's checkpoint bytes already
// host-resident in the node's content-addressed store (0 with no store
// or no committed manifest) — the chunk-locality placement signal.
func (n *Node) chunkFrac(model string) float64 {
	st := n.srv.CkptStore()
	if st == nil {
		return 0
	}
	b, ok := n.srv.Backend(model)
	if !ok || b.Container() == nil {
		return 0
	}
	return st.HostChunkFrac(b.Container().ID())
}

// presence returns the node's locality class for a model, and whether
// the model is deployed on this node at all.
func (n *Node) presence(model string) (Presence, bool) {
	b, ok := n.srv.Backend(model)
	if !ok {
		return PresenceNone, false
	}
	switch b.State() {
	case core.BackendRunning:
		return PresenceWarm, true
	case core.BackendSwapping, core.BackendInitializing:
		// A transition is in flight; the backend will shortly be warm (or
		// swapped out). Treat as RAM-class: routable, nearly warm.
		return PresenceRAM, true
	case core.BackendFailed:
		return PresenceNone, false
	}
	// Swapped out: locality depends on where the image resides.
	if ctr := b.Container(); ctr != nil {
		if loc, err := n.srv.Driver().ImageLocation(ctr.ID()); err == nil {
			if loc.String() == "disk" {
				return PresenceDisk, true
			}
			return PresenceRAM, true
		}
	}
	return PresenceDisk, true
}

// load returns the node's total outstanding work.
func (n *Node) load() int {
	var total int
	for _, b := range n.srv.Backends() {
		total += b.QueueLen() + int(b.Pending()) + int(b.Active())
	}
	return total
}
