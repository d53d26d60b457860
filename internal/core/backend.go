// Package core implements SwapServeLLM itself — the paper's contribution:
// an OpenAI-compatible request router, per-model workers and queues, a
// scheduler coordinating swap-ins, a task manager with a GPU-memory
// reservation priority queue, a demand-aware preemption policy, and an
// engine controller that hot-swaps containerized inference engines via
// the cgroup freezer and transparent GPU checkpointing (§3, §4).
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"swapservellm/internal/container"
	"swapservellm/internal/metrics"
	"swapservellm/internal/models"
	"swapservellm/internal/openai"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

// BackendState is a backend's serving state.
type BackendState int32

// Backend states.
const (
	// BackendInitializing: the container is starting and the engine is in
	// its cold-start initialization.
	BackendInitializing BackendState = iota
	// BackendRunning: the engine is resident in GPU memory and serving.
	BackendRunning
	// BackendSwappedOut: the engine is frozen with its GPU state saved in
	// a host-memory snapshot; a swap-in is required before serving.
	BackendSwappedOut
	// BackendSwapping: a swap-in or swap-out transition is in progress.
	BackendSwapping
	// BackendFailed: initialization failed; requests are rejected.
	BackendFailed
)

// String returns the lowercase state name.
func (s BackendState) String() string {
	switch s {
	case BackendInitializing:
		return "initializing"
	case BackendRunning:
		return "running"
	case BackendSwappedOut:
		return "swapped-out"
	case BackendSwapping:
		return "swapping"
	case BackendFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Backend is one configured (model, engine) pair: its container, request
// queue, and hot-swapping state. The index data structure of §3.2 maps
// model names to these.
type Backend struct {
	// name is the model name clients address (unique per deployment).
	name   string
	model  models.Model
	engine perfmodel.EngineKind
	gpus   []int

	ctr   *container.Container
	queue chan *queuedRequest
	// requests counts the requests routed to the backend
	// ("requests_" + name).
	requests *metrics.Handle[metrics.Counter]
	// snapshotBytes is the size of the backend's last checkpoint image
	// ("snapshot_bytes_" + name), named when the controller registers it.
	snapshotBytes *metrics.Handle[metrics.Gauge]
	// api is the client of the container's engine API, rebuilt only when
	// its base URL changes (see apiClient).
	api atomic.Pointer[openai.Client]
	// queued counts items sent or about to be sent on queue and not yet
	// taken by the worker: the ready check of the worker's queue wait.
	queued atomic.Int64

	state atomic.Int32

	// evictMu is the per-backend write lock of §3.5: workers hold the read
	// side while forwarding; the controller takes the write side during
	// swap-out so no new requests reach a departing engine. Both locks
	// are held across clock waits, so they are clock-aware.
	evictMu simclock.RWMutex
	// swapMu serializes swap-in attempts for this backend.
	swapMu simclock.Mutex

	// active counts in-flight requests (forwarded, response not finished).
	active atomic.Int64

	// idleMu guards idleWait, the event-driven drain signal: the
	// controller's drain registers a waiter channel instead of polling
	// active, and decActive closes it when the last in-flight request
	// finishes.
	idleMu   sync.Mutex
	idleWait chan struct{}

	// pending counts requests a worker has dequeued but not yet finished
	// forwarding — work the backend owes even though it is not yet
	// in-flight at the engine. Guards against reaping a backend that just
	// swapped in for a queued request.
	pending atomic.Int64

	// lastReady is when the backend last became servable (init or
	// swap-in completion), so idle time is not measured across a period
	// spent swapped out (nanoseconds since epoch).
	lastReady atomic.Int64

	// lastFinished is when the backend last completed forwarding a
	// request (nanoseconds since epoch); the idle clock starts here.
	lastFinished atomic.Int64

	// lastAccessed is the most recent request arrival, the LRU tie-breaker
	// of the preemption policy (nanoseconds since epoch).
	lastAccessed atomic.Int64

	// requiredBytes is the GPU memory needed to resume this backend: the
	// footprint recorded at swap-out time (§4.2 "saves the amount of GPU
	// memory in use").
	requiredBytes atomic.Int64

	// sleepUsed records whether the vLLM sleep-mode fast path was applied
	// at swap-out, so swap-in knows to wake the engine.
	sleepUsed atomic.Bool

	// useSleepMode enables the sleep-mode fast path for this backend.
	useSleepMode bool

	// keepWarm marks backends that skip the post-init snapshot.
	keepWarm bool

	// swapIns / swapOuts count hot-swap operations for metrics.
	swapIns  atomic.Int64
	swapOuts atomic.Int64
}

// apiClient returns a client of the engine API the backend's container
// publishes. One client serves every probe, so its base URL is parsed
// once.
func (b *Backend) apiClient(clock simclock.Clock) *openai.Client {
	base := b.ctr.BaseURL()
	if cli := b.api.Load(); cli != nil && cli.BaseURL == base {
		return cli
	}
	cli := &openai.Client{BaseURL: base, Clock: clock}
	b.api.Store(cli)
	return cli
}

// Name returns the backend's model name.
func (b *Backend) Name() string { return b.name }

// Model returns the served model.
func (b *Backend) Model() models.Model { return b.model }

// EngineKind returns the backend's engine.
func (b *Backend) EngineKind() perfmodel.EngineKind { return b.engine }

// GPUs returns the device indices the backend spans.
func (b *Backend) GPUs() []int { return b.gpus }

// Container returns the backing container.
func (b *Backend) Container() *container.Container { return b.ctr }

// State returns the serving state.
func (b *Backend) State() BackendState { return BackendState(b.state.Load()) }

func (b *Backend) setState(s BackendState) { b.state.Store(int32(s)) }

// QueueLen returns the number of requests waiting in the backend's queue,
// the first tier of the demand-aware preemption metric (§3.5).
func (b *Backend) QueueLen() int { return len(b.queue) }

// Active returns the number of in-flight requests.
func (b *Backend) Active() int64 { return b.active.Load() }

// Pending returns the number of dequeued-but-unfinished requests.
func (b *Backend) Pending() int64 { return b.pending.Load() }

// incActive records a request entering flight. Paired with decActive.
func (b *Backend) incActive() { b.active.Add(1) }

// decActive records a request leaving flight and, when it was the last
// one, wakes any drain waiting for the backend to go idle.
func (b *Backend) decActive() {
	if b.active.Add(-1) != 0 {
		return
	}
	b.idleMu.Lock()
	if b.idleWait != nil {
		close(b.idleWait)
		b.idleWait = nil
	}
	b.idleMu.Unlock()
}

// awaitIdle blocks until the backend has no in-flight requests or ctx is
// done. It is the event-driven replacement for polling Active() in a
// sleep loop: the waiter channel is (re)armed under idleMu and re-checked
// after each wake, so a request racing in between checks is caught. The
// wait is a gate BlockOn the clock probes, so a Virtual clock treats it
// as idle time and hands the token back once the channel closes.
func (b *Backend) awaitIdle(ctx context.Context, gate *simclock.Gate) error {
	for {
		b.idleMu.Lock()
		if b.active.Load() == 0 {
			b.idleMu.Unlock()
			return nil
		}
		if b.idleWait == nil {
			b.idleWait = make(chan struct{})
		}
		ch := b.idleWait
		b.idleMu.Unlock()
		cancelled := false
		ready := func() bool { return simclock.Closed(ch) || ctx.Err() != nil }
		gate.BlockOn(ch, ready, func() {
			select {
			case <-ch:
			case <-ctx.Done():
				cancelled = true
			}
		})
		if cancelled {
			return ctx.Err()
		}
	}
}

// LastAccessed returns the most recent request arrival time.
func (b *Backend) LastAccessed() time.Time {
	return time.Unix(0, b.lastAccessed.Load())
}

// touch advances the last-accessed metadata (§4.1) to t, reporting
// false when t is not later than the recorded access.
func (b *Backend) touch(t time.Time) bool {
	for {
		cur := b.lastAccessed.Load()
		if t.UnixNano() <= cur {
			return false
		}
		if b.lastAccessed.CompareAndSwap(cur, t.UnixNano()) {
			return true
		}
	}
}

// RequiredBytes returns the GPU memory a swap-in must reserve.
func (b *Backend) RequiredBytes() int64 { return b.requiredBytes.Load() }

// SwapCounts returns the number of completed swap-ins and swap-outs.
func (b *Backend) SwapCounts() (in, out int64) {
	return b.swapIns.Load(), b.swapOuts.Load()
}

// BackendStatus is an inspection snapshot for the admin API and tools.
type BackendStatus struct {
	Name          string  `json:"name"`
	Engine        string  `json:"engine"`
	State         string  `json:"state"`
	QueueLen      int     `json:"queue_len"`
	Active        int64   `json:"active"`
	LastAccessed  string  `json:"last_accessed"`
	RequiredGiB   float64 `json:"required_gib"`
	GPUBytes      int64   `json:"gpu_bytes"`
	SwapIns       int64   `json:"swap_ins"`
	SwapOuts      int64   `json:"swap_outs"`
	ContainerID   string  `json:"container_id"`
	ContainerPort int     `json:"container_port"`
}

// Status returns the backend's current snapshot.
func (b *Backend) Status() BackendStatus {
	in, out := b.SwapCounts()
	st := BackendStatus{
		Name:         b.name,
		Engine:       string(b.engine),
		State:        b.State().String(),
		QueueLen:     b.QueueLen(),
		Active:       b.Active(),
		LastAccessed: b.LastAccessed().UTC().Format(time.RFC3339),
		RequiredGiB:  float64(b.RequiredBytes()) / float64(models.GiB),
		SwapIns:      in,
		SwapOuts:     out,
	}
	if b.ctr != nil {
		st.ContainerID = b.ctr.ID()
		st.ContainerPort = b.ctr.Port()
		if eng := b.ctr.Engine(); eng != nil {
			st.GPUBytes = eng.GPUBytes()
		}
	}
	return st
}
