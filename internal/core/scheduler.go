package core

import (
	"context"
	"fmt"
	"time"

	"swapservellm/internal/metrics"
	"swapservellm/internal/obs"
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
	ctx, span := obs.Start(s.ctrl.traceCtx(ctx), "ensure.running", obs.String("model", b.name))
	defer func() { span.EndErr(err) }()
	// The lock may be held by a peer that is asleep on the clock (a
	// swap mid-flight); the clock-aware lock lets a virtual clock keep
	// advancing while this worker waits.
	b.swapMu.Lock(simclock.GateFor(s.clock))
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

	t0 := s.clock.Now()
	// RequiredBytes is the backend's total footprint; tensor-parallel
	// backends need an even share on each device of their topology.
	perDevice := b.RequiredBytes() / int64(len(b.gpus))
	res, err := s.tm.enqueue(b.gpus, perDevice, b.name)
	if err != nil {
		return fmt.Errorf("core: reserving %d bytes for %s: %w", b.RequiredBytes(), b.name, err)
	}
	pipelined := s.ctrl.Pipelined()
	if !simclock.Closed(res.p.granted) {
		// The claim does not fit: running backends must be evicted, so
		// this swap-in is an exchange. The victims' swap-outs and the
		// target's swap-in nest in one span.
		var xspan *obs.Span
		ctx, xspan = obs.Start(ctx, "swap.exchange",
			obs.String("target", b.name), obs.Bool("pipelined", pipelined))
		defer func() {
			if xspan != nil {
				for _, v := range res.victims() {
					xspan.SetAttr(obs.String("victim", v))
				}
			}
			xspan.EndErr(err)
			if err == nil && res.evicted() {
				s.reg.Histogram("swap_exchange_latency").Observe(s.clock.Since(t0))
				s.reg.Counter("swap_exchanges").Inc()
			}
		}()
	}
	// Whatever headroom the restore did not allocate is handed back once
	// the swap-in settled (scoped acquire-release, §6); a failed swap-in
	// thereby also settles the evictions it started.
	defer res.Release()
	res.track(ctx)
	// Sequential: the restore starts once the whole claim is granted.
	// Pipelined: it starts at once, each chunk waiting until the claim
	// covers it, so the target moves in while the victim moves out over
	// the full-duplex link.
	if !pipelined {
		if err := res.Wait(ctx); err != nil {
			return fmt.Errorf("core: reserving %d bytes for %s: %w", b.RequiredBytes(), b.name, err)
		}
	}
	s.reg.Histogram("reservation_wait").Observe(s.clock.Since(t0))
	return s.ctrl.SwapIn(ctx, b, res)
}
