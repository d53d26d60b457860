package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"swapservellm/internal/container"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/engine"
	"swapservellm/internal/metrics"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/retry"
	"swapservellm/internal/simclock"
)

// Controller is the engine controller of §3.1: it executes swap-in and
// swap-out operations against the container runtime and the GPU
// checkpoint driver, applies engine-specific optimizations (vLLM sleep
// mode), and implements the demand-aware preemption policy on behalf of
// the task manager.
type Controller struct {
	clock   simclock.Clock
	testbed perfmodel.Testbed
	rt      *container.Runtime
	tm      *TaskManager
	policy  PreemptionPolicy
	reg     *metrics.Registry
	tracer  *obs.Tracer

	// backends enumerates swap candidates; installed by the server.
	// cands is selectCandidate's buffer, reused by every selection.
	mu       sync.Mutex
	backends map[string]*Backend
	cands    []Candidate

	// evictSerial serializes evictions per device so concurrent reclaim
	// loops on the same GPU do not stampede the same candidates, while
	// evictions on unrelated devices proceed in parallel.
	evictSerialMu sync.Mutex
	evictSerial   map[int]*simclock.Mutex

	// pipelined selects the full-duplex swap-in: the target's restore
	// starts at once and takes each chunk from its reservation as the
	// victim's checkpoint frees it, instead of after the full grant.
	pipelined bool
}

// ControllerOption configures a Controller at construction.
type ControllerOption func(*Controller)

// WithTestbed sets the calibrated hardware profile the controller times
// operations against.
func WithTestbed(tb perfmodel.Testbed) ControllerOption {
	return func(ct *Controller) { ct.testbed = tb }
}

// WithRuntime sets the container runtime the controller drives.
func WithRuntime(rt *container.Runtime) ControllerOption {
	return func(ct *Controller) { ct.rt = rt }
}

// WithTaskManager sets the GPU-memory reservation manager.
func WithTaskManager(tm *TaskManager) ControllerOption {
	return func(ct *Controller) { ct.tm = tm }
}

// WithPolicy sets the preemption policy (default DemandAwarePolicy).
func WithPolicy(p PreemptionPolicy) ControllerOption {
	return func(ct *Controller) {
		if p != nil {
			ct.policy = p
		}
	}
}

// WithRegistry sets the metrics registry (default: a fresh one).
func WithRegistry(reg *metrics.Registry) ControllerOption {
	return func(ct *Controller) {
		if reg != nil {
			ct.reg = reg
		}
	}
}

// WithTracer sets the swap-lifecycle tracer. Swap operations entered
// with a context that carries no tracer are recorded against this one,
// so admin-triggered and reaper-triggered swaps appear in /debug/trace
// alongside request-triggered ones.
func WithTracer(tr *obs.Tracer) ControllerOption {
	return func(ct *Controller) { ct.tracer = tr }
}

// NewController builds a controller from its clock plus functional
// options — the dependency set grew past the point where positional
// parameters stayed readable. The server registers backends as it
// creates them.
func NewController(clock simclock.Clock, opts ...ControllerOption) *Controller {
	ct := &Controller{
		clock:       clock,
		policy:      DemandAwarePolicy{},
		reg:         metrics.NewRegistry(),
		backends:    make(map[string]*Backend),
		evictSerial: make(map[int]*simclock.Mutex),
	}
	for _, opt := range opts {
		opt(ct)
	}
	return ct
}

// traceCtx installs the controller's configured tracer on ctx when the
// caller did not bring one, so every swap entry point is traceable.
func (ct *Controller) traceCtx(ctx context.Context) context.Context {
	if ct.tracer != nil && obs.TracerFrom(ctx) == nil {
		return obs.WithTracer(ctx, ct.tracer)
	}
	return ctx
}

// SetPipelined selects between the sequential swap-in (restore once the
// reservation is fully granted) and the pipelined full-duplex swap-in
// (restore into the reservation as it grows). Sequential remains the
// A/B baseline.
func (ct *Controller) SetPipelined(on bool) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.pipelined = on
}

// Pipelined reports whether the full-duplex exchange path is selected.
func (ct *Controller) Pipelined() bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.pipelined
}

// evictLock returns the per-device eviction mutex, creating it on first
// use.
//
//swaplint:lockclass core.Controller.evictSerial
func (ct *Controller) evictLock(gpuID int) *simclock.Mutex {
	ct.evictSerialMu.Lock()
	defer ct.evictSerialMu.Unlock()
	m, ok := ct.evictSerial[gpuID]
	if !ok {
		m = &simclock.Mutex{}
		ct.evictSerial[gpuID] = m
	}
	return m
}

// RegisterBackend adds a backend to the controller's candidate set.
func (ct *Controller) RegisterBackend(b *Backend) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.backends[b.name] = b
	b.snapshotBytes = ct.reg.GaugeHandle("snapshot_bytes_" + b.name)
}

// Policy returns the active preemption policy.
func (ct *Controller) Policy() PreemptionPolicy { return ct.policy }

// SwapOut suspends a running backend (§4.2 Model Preemption): write-lock
// it against new requests, drain in-flight ones, apply the sleep-mode
// optimization when available, freeze the container's cgroup, and create
// the in-memory GPU snapshot, freeing device capacity.
func (ct *Controller) SwapOut(ctx context.Context, b *Backend) (err error) {
	ctx = ct.traceCtx(ctx)
	ctx, span := obs.Start(ctx, "swap.out", obs.String("model", b.name))
	defer func() { span.EndErr(err) }()
	// The write lock stops workers from forwarding new requests (§3.5).
	// Clock-aware: the current holder may be asleep on the clock, and a
	// blocked write-lock waiter must not freeze virtual time.
	b.evictMu.Lock(simclock.GateFor(ct.clock))
	defer b.evictMu.Unlock()

	if err := ct.quiesce(ctx, b); err != nil {
		return err
	}
	t0 := ct.clock.Now()
	saved, err := ct.rt.Driver().Suspend(ctx, b.ctr.ID())
	if err != nil {
		return ct.abortSwapOut(ctx, b, "checkpointing GPU state", err)
	}
	ct.swappedOut(b, saved, ct.clock.Since(t0))
	return nil
}

// quiesce is the first leg of every swap-out: it takes a Running
// backend to Swapping, drains its in-flight requests, records the
// footprint a later swap-in must reserve, applies the sleep-mode
// offload, and freezes the container, leaving the GPU state ready to
// checkpoint. On failure the backend is serving again. The caller holds
// b.evictMu.
func (ct *Controller) quiesce(ctx context.Context, b *Backend) error {
	if s := b.State(); s != BackendRunning {
		return fmt.Errorf("core: swap-out of backend %s in state %v", b.name, s)
	}
	b.setState(BackendSwapping)

	// Drain in-flight requests so the freeze does not strand live streams.
	if err := ct.drain(ctx, b); err != nil {
		b.setState(BackendRunning)
		return err
	}

	// Record the running footprint: the memory a future swap-in must
	// reserve (§4.2 "saves the amount of GPU memory in use").
	eng := b.ctr.Engine()
	running := eng.GPUBytes()
	b.requiredBytes.Store(running)

	// Engine-specific optimization: vLLM's sleep API offloads weights and
	// discards the KV cache, shrinking the checkpoint (§4.2).
	b.sleepUsed.Store(false)
	if sleeper, ok := eng.(engine.Sleeper); ok && b.useSleepMode {
		if err := sleeper.Sleep(ctx, 1); err == nil {
			b.sleepUsed.Store(true)
		}
	}

	// Freeze CPU execution; the caller then checkpoints the GPU state.
	if err := ct.rt.Pause(ctx, b.ctr); err != nil {
		ct.wakeIfSlept(ctx, b)
		b.setState(BackendRunning)
		return fmt.Errorf("core: pausing container: %w", err)
	}
	return nil
}

// abortSwapOut rolls a quiesced backend back to serving after the swap
// failed at stage: thaw the container (retrying past transient faults)
// and undo the sleep-mode offload. A thaw that keeps failing leaves the
// engine frozen, so the backend is unusable and is marked failed rather
// than Running. The rollback runs even when ctx was the cause of the
// abort, but keeps its trace span.
func (ct *Controller) abortSwapOut(ctx context.Context, b *Backend, stage string, cause error) error {
	rbCtx := context.WithoutCancel(ctx)
	if uerr := retryTransient(func() error { return ct.rt.Unpause(rbCtx, b.ctr) }); uerr != nil {
		b.setState(BackendFailed)
		return fmt.Errorf("core: %s: %w (rollback thaw failed: %w)", stage, cause, uerr)
	}
	ct.wakeIfSlept(ctx, b)
	b.setState(BackendRunning)
	return fmt.Errorf("core: %s: %w", stage, cause)
}

// swappedOut commits a completed checkpoint that took latency: it
// records the swap-out metrics, marks the backend SwappedOut, and wakes
// any reservation waiting on the freed memory.
func (ct *Controller) swappedOut(b *Backend, saved int64, latency time.Duration) {
	ct.reg.Histogram("swap_out_latency").Observe(latency)
	ct.reg.Counter("swap_outs").Inc()
	b.snapshotBytes.Get().Set(float64(saved))
	b.setState(BackendSwappedOut)
	b.swapOuts.Add(1)
	ct.tm.NotifyFreed()
}

// drain waits until the backend has no in-flight requests. Completion is
// event-driven: the last in-flight request wakes the waiter directly
// (Backend.decActive), so there is no polling interval between the final
// response and the start of the checkpoint.
func (ct *Controller) drain(ctx context.Context, b *Backend) error {
	return b.awaitIdle(ctx, simclock.GateFor(ct.clock))
}

// SwapIn resumes a swapped-out backend (§3.3 ⑨): restore the GPU state
// from the host snapshot into res, thaw the cgroup, apply the engine
// wake-up, and verify the engine API is live. res is the caller's memory
// reservation for RequiredBytes; the restore takes each chunk from it as
// it grows, and the wake-up runs once it is fully granted.
func (ct *Controller) SwapIn(ctx context.Context, b *Backend, res *Reservation) (err error) {
	ctx = ct.traceCtx(ctx)
	ctx, span := obs.Start(ctx, "swap.in", obs.String("model", b.name))
	defer func() { span.EndErr(err) }()
	if s := b.State(); s != BackendSwappedOut {
		return fmt.Errorf("core: swap-in of backend %s in state %v", b.name, s)
	}
	b.setState(BackendSwapping)
	t0 := ct.clock.Now()

	// Restore device state and resume the CUDA process.
	if err := ct.rt.Driver().Resume(ctx, b.ctr.ID(), res); err != nil {
		return ct.failBack(ctx, b, "restoring GPU state", err)
	}
	// A sleep-mode image is smaller than the footprint the wake-up grows
	// back to, so a pipelined restore can land before its full grant.
	if err := res.Wait(ctx); err != nil {
		return ct.failBack(ctx, b, "reserving GPU memory", err)
	}
	return ct.resume(ctx, b, t0)
}

// resume is the last leg of every swap-in, run once the GPU state is
// back on the device: thaw the container, apply the engine wake-up,
// charge the engine resume overhead, verify the API is live (§3.3 ⑩),
// and mark the backend Running with the swap-in latency measured from
// t0. A failure rolls the backend back to SwappedOut via failBack.
func (ct *Controller) resume(ctx context.Context, b *Backend, t0 time.Time) error {
	// Thaw the container. A failed thaw leaves it paused, so retrying is
	// safe and far cheaper than rolling the whole restore back.
	if err := retryTransient(func() error { return ct.rt.Unpause(ctx, b.ctr) }); err != nil {
		return ct.failBack(ctx, b, "unpausing container", err)
	}
	// Engine-specific wake-up after a sleep-mode swap-out.
	if b.sleepUsed.Load() {
		if sleeper, ok := b.ctr.Engine().(engine.Sleeper); ok {
			if err := sleeper.Wake(ctx); err != nil {
				return ct.failBack(ctx, b, "waking engine", err)
			}
		}
		b.sleepUsed.Store(false)
	}
	// Engine resume overhead (API liveness verification, §3.3 ⑩).
	ct.clock.Sleep(perfmodel.EngineResumeOverhead(b.engine))
	if err := ct.verifyAPI(ctx, b); err != nil {
		return ct.failBack(ctx, b, "engine API not live after swap-in", err)
	}

	ct.reg.Histogram("swap_in_latency").Observe(ct.clock.Since(t0))
	ct.reg.Counter("swap_ins").Inc()
	b.lastReady.Store(ct.clock.Now().UnixNano())
	b.setState(BackendRunning)
	b.swapIns.Add(1)
	return nil
}

// failBack rolls a half-swapped-in backend back to a consistent
// swapped-out state after a mid-swap-in failure. Depending on how far
// the swap-in got, the driver may be Checkpointed (restore never
// happened), Locked (restore done, unlock failed), or Running (fully
// resumed but a later step failed) — each needs a different path back
// to Checkpointed. The rollback is what keeps the system's two views
// consistent: a backend reported SwappedOut must have its image in host
// memory, not its state on the device. The rollback ignores ctx's
// cancellation (it must run precisely when ctx is what failed the
// swap-in) but keeps its trace span, so aborted swaps show their
// rollback steps.
func (ct *Controller) failBack(ctx context.Context, b *Backend, stage string, cause error) error {
	rbCtx := context.WithoutCancel(ctx)
	id := b.ctr.ID()
	st, serr := ct.rt.Driver().State(id)
	var rbErr error
	if serr != nil {
		rbErr = serr
	} else {
		switch st {
		case cudackpt.StateCheckpointed:
			// Nothing moved; already consistent.
		case cudackpt.StateLocked:
			rbErr = retryTransient(func() error {
				_, err := ct.rt.Driver().Checkpoint(rbCtx, id)
				return err
			})
		case cudackpt.StateRunning:
			// Refreeze the CPU side if it was thawed, then re-suspend.
			if b.ctr.State() == container.StateRunning {
				rbErr = retryTransient(func() error { return ct.rt.Pause(rbCtx, b.ctr) })
			}
			if rbErr == nil {
				rbErr = retryTransient(func() error {
					_, err := ct.rt.Driver().Suspend(rbCtx, id)
					return err
				})
			}
		}
	}
	if rbErr != nil {
		b.setState(BackendFailed)
		return fmt.Errorf("core: %s: %w (rollback failed: %w)", stage, cause, rbErr)
	}
	b.setState(BackendSwappedOut)
	// The device capacity the failed swap-in had claimed is free again.
	ct.tm.NotifyFreed()
	return fmt.Errorf("core: %s: %w", stage, cause)
}

// retryTransient retries op a few times, for rollback steps that must
// not give up on a single transient (often injected) fault. It is the
// shared helper from internal/retry — the driver's Suspend unlock
// rollback uses the same one.
func retryTransient(op func() error) error {
	return retry.Transient(op)
}

// wakeIfSlept undoes a sleep-mode offload during swap-out rollback.
func (ct *Controller) wakeIfSlept(ctx context.Context, b *Backend) {
	if !b.sleepUsed.Load() {
		return
	}
	if sleeper, ok := b.ctr.Engine().(engine.Sleeper); ok {
		sleeper.Wake(ctx)
	}
	b.sleepUsed.Store(false)
}

// verifyAPI polls the engine's health endpoint every 2 ms of clock time
// until it responds, giving up after 10 s. Under Virtual those are 10 s
// of virtual time, checked between polls: a wall-clock timer would make
// a virtual-time run depend on host speed. On other clocks they are a
// wall-clock deadline on the context, which also bounds a hung probe.
func (ct *Controller) verifyAPI(ctx context.Context, b *Backend) error {
	const limit, interval = 10 * time.Second, 2 * time.Millisecond
	cli := b.apiClient(ct.clock)
	if _, virtual := ct.clock.(*simclock.Virtual); !virtual {
		hctx, cancel := context.WithTimeout(ctx, limit)
		defer cancel()
		return cli.WaitHealthy(hctx, interval)
	}
	gate := simclock.GateFor(ct.clock)
	start := ct.clock.Now()
	for !cli.Healthy(ctx) {
		if ct.clock.Since(start) >= limit {
			return context.DeadlineExceeded
		}
		if gate.Wait(interval, ctx.Done()) == 0 {
			return ctx.Err()
		}
	}
	return nil
}

// EvictOne implements Evictor: pick the policy's best candidate among
// running backends on the device and swap it out.
func (ct *Controller) EvictOne(ctx context.Context, gpuID int, exclude string, needed func() bool) (string, bool) {
	lock := ct.evictLock(gpuID)
	// Held across SwapOut's simulated transfer, so clock-aware: a waiter
	// must not pin virtual time while the holder sleeps.
	lock.Lock(simclock.GateFor(ct.clock))
	defer lock.Unlock()
	if needed != nil && !needed() {
		return "", false
	}

	cand, ok := ct.selectCandidate(gpuID, exclude)
	if !ok {
		return "", false
	}
	ct.mu.Lock()
	b := ct.backends[cand.Name]
	ct.mu.Unlock()
	if b == nil {
		return "", false
	}
	if err := ct.SwapOut(ctx, b); err != nil {
		return "", false
	}
	return cand.Name, true
}

// selectCandidate builds the candidate list for a device and applies the
// policy.
func (ct *Controller) selectCandidate(gpuID int, exclude string) (Candidate, bool) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	cands := ct.cands[:0]
	for name, b := range ct.backends {
		if name == exclude || b.State() != BackendRunning {
			continue
		}
		if !backendOnGPU(b, gpuID) {
			continue
		}
		cands = append(cands, Candidate{
			Name: name,
			// Queued plus dequeued/in-flight requests: all represent
			// ongoing user interactions a preemption would disrupt (§3.5).
			QueueLen:          b.QueueLen() + int(b.Pending()),
			LastAccessedNanos: b.lastAccessed.Load(),
			FreeableBytes:     b.ctr.Engine().GPUBytes(),
		})
	}
	ct.cands = cands
	return ct.policy.Select(cands)
}

// backendOnGPU reports whether the backend occupies the given device.
func backendOnGPU(b *Backend, gpuID int) bool {
	for _, id := range b.gpus {
		if id == gpuID {
			return true
		}
	}
	return false
}
