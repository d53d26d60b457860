package core

import (
	"context"
	"fmt"
	"time"

	"swapservellm/internal/metrics"
	"swapservellm/internal/obs"
	"swapservellm/internal/sched"
	"swapservellm/internal/simclock"
)

// Scheduler coordinates swap-in requests from model workers (§3.1 ④⑤):
// it reserves the required GPU memory with the task manager and triggers
// the swap-in via the engine controller once the reservation is granted.
type Scheduler struct {
	clock simclock.Clock
	tm    *TaskManager
	ctrl  *Controller
	reg   *metrics.Registry
	ttl   sched.TTLPolicy
}

// NewScheduler builds a scheduler.
func NewScheduler(clock simclock.Clock, tm *TaskManager, ctrl *Controller, reg *metrics.Registry) *Scheduler {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Scheduler{clock: clock, tm: tm, ctrl: ctrl, reg: reg}
}

// EnsureRunning makes the backend servable: a no-op when it is already
// running, otherwise a full swap-in with memory reservation. Concurrent
// calls for the same backend collapse onto one swap-in (per-model
// synchronization, §4.1).
func (s *Scheduler) EnsureRunning(ctx context.Context, b *Backend) (err error) {
	if b.State() == BackendRunning {
		return nil
	}
	ctx, span := obs.Start(ctx, "ensure.running", obs.String("model", b.name))
	defer func() { span.EndErr(err) }()
	// The lock may be held by a peer that is asleep on the clock (a
	// swap mid-flight); acquire through the gate so a virtual clock can
	// keep advancing while this worker waits.
	simclock.GateFor(s.clock).Block(b.swapMu.Lock)
	defer b.swapMu.Unlock()
	// A reaper- or preemption-initiated swap-out may be mid-flight; wait
	// for the transition to settle before deciding.
	for b.State() == BackendSwapping {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.clock.Sleep(5 * time.Millisecond)
	}
	// Re-check: another worker may have completed the swap-in while we
	// waited on the mutex.
	switch b.State() {
	case BackendRunning:
		return nil
	case BackendFailed:
		return errBackendFailed
	case BackendInitializing:
		return fmt.Errorf("core: backend %s still initializing", b.name)
	}

	// This is a reactive swap-in: demand arrived while the backend was
	// cold. Adaptive TTL policies learn from exactly this signal — an
	// access shortly after an eviction means the TTL was too short.
	if s.ttl != nil {
		s.ttl.NoteAccess(b.name, s.clock.Now())
	}

	t0 := s.clock.Now()
	// RequiredBytes is the backend's total footprint; tensor-parallel
	// backends need an even share on each device of their topology.
	perDevice := b.RequiredBytes() / int64(len(b.gpus))
	res, rerr := s.tm.Reserve(ctx, b.gpus, perDevice, b.name)
	if rerr != nil {
		return fmt.Errorf("core: reserving %d bytes for %s: %w", b.RequiredBytes(), b.name, rerr)
	}
	s.reg.Histogram("reservation_wait").Observe(s.clock.Since(t0))
	// The reservation's headroom is handed back once the restore's real
	// allocation has landed (scoped acquire-release, §6).
	defer res.Release()

	return s.ctrl.SwapIn(ctx, b)
}
