package core

import (
	"context"
	"fmt"
	"time"

	"swapservellm/internal/obs"
	"swapservellm/internal/simclock"
)

// This file implements the swap-exchange fast path: replacing one
// running backend (the victim) with a swapped-out one (the target) as a
// single operation. The sequential baseline checkpoints the victim
// fully, reserves the freed memory, and only then restores the target —
// the two transfers serialize even though the PCIe link is full duplex.
// The pipelined path overlaps them: the victim's checkpoint frees device
// capacity chunk by chunk (D2H) while the target's restore claims it
// chunk by chunk (H2D), so the exchange completes in roughly the time of
// the slower transfer instead of their sum.

// SwapExchange replaces the running victim with the swapped-out target
// in one operation, using the pipelined full-duplex path when selected
// via SetPipelined and the sequential swap-out-then-swap-in baseline
// otherwise. The reported "swap_exchange_latency" histogram measures
// victim swap-out start to target serving.
func (ct *Controller) SwapExchange(ctx context.Context, victim, target *Backend) (err error) {
	if victim == target || victim.name == target.name {
		return fmt.Errorf("core: swap-exchange of %s with itself", victim.name)
	}
	ctx = ct.traceCtx(ctx)
	pipelined := ct.Pipelined()
	ctx, span := obs.Start(ctx, "swap.exchange",
		obs.String("victim", victim.name), obs.String("target", target.name),
		obs.Bool("pipelined", pipelined))
	defer func() { span.EndErr(err) }()
	if pipelined {
		return ct.swapExchangePipelined(ctx, victim, target)
	}
	return ct.swapExchangeSequential(ctx, victim, target)
}

// swapExchangeSequential is the A/B baseline: a full SwapOut, then a
// blocking reservation of the target's footprint, then a full SwapIn.
func (ct *Controller) swapExchangeSequential(ctx context.Context, victim, target *Backend) error {
	simclock.GateFor(ct.clock).Block(target.swapMu.Lock)
	defer target.swapMu.Unlock()
	if s := target.State(); s != BackendSwappedOut {
		return fmt.Errorf("core: swap-exchange target %s in state %v", target.name, s)
	}

	t0 := ct.clock.Now()
	if err := ct.SwapOut(ctx, victim); err != nil {
		return err
	}
	perDevice := target.RequiredBytes() / int64(len(target.gpus))
	res, err := ct.tm.Reserve(ctx, target.gpus, perDevice, target.name)
	if err != nil {
		return fmt.Errorf("core: reserving %d bytes for %s: %w", target.RequiredBytes(), target.name, err)
	}
	defer res.Release()
	if err := ct.SwapIn(ctx, target); err != nil {
		return err
	}
	ct.reg.Histogram("swap_exchange_latency").Observe(ct.clock.Since(t0))
	ct.reg.Counter("swap_exchanges").Inc()
	return nil
}

// swapExchangePipelined overlaps the victim's checkpoint with the
// target's restore. It is built from the same legs as SwapOut and
// SwapIn: the victim is quiesced, its Suspend then runs in a goroutine
// while RestoreWait claims each freed chunk as it lands, and the victim
// is committed (swappedOut) or rolled back (abortSwapOut) before the
// target resumes. A queued reservation acts as a FIFO barrier so the
// freed capacity accrues to the target rather than a third party — the
// restore itself never waits for the full grant.
func (ct *Controller) swapExchangePipelined(ctx context.Context, victim, target *Backend) error {
	gate := simclock.GateFor(ct.clock)
	gate.Block(target.swapMu.Lock)
	defer target.swapMu.Unlock()
	if s := target.State(); s != BackendSwappedOut {
		return fmt.Errorf("core: swap-exchange target %s in state %v", target.name, s)
	}
	gate.Block(victim.evictMu.Lock)
	defer victim.evictMu.Unlock()

	t0 := ct.clock.Now()
	if err := ct.quiesce(ctx, victim); err != nil {
		return err
	}

	target.setState(BackendSwapping)
	perDevice := target.RequiredBytes() / int64(len(target.gpus))
	barrier, err := ct.tm.ReserveAsync(ctx, target.gpus, perDevice, target.name)
	if err != nil {
		target.setState(BackendSwappedOut)
		return ct.abortSwapOut(ctx, victim,
			fmt.Sprintf("reserving %d bytes for %s", target.RequiredBytes(), target.name), err)
	}
	defer barrier.Release()

	// The restore aborts if the victim's checkpoint fails — without the
	// victim's capacity it could wait forever.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type suspendResult struct {
		saved int64
		took  time.Duration
		err   error
	}
	suspended := make(chan suspendResult, 1)
	tXfer := ct.clock.Now()
	gate.Go(func() {
		saved, serr := ct.rt.Driver().Suspend(ctx, victim.ctr.ID())
		if serr != nil {
			cancel()
		}
		suspended <- suspendResult{saved: saved, took: ct.clock.Since(tXfer), err: serr}
	})

	restoreErr := ct.rt.Driver().RestoreWait(rctx, target.ctr.ID())
	if restoreErr == nil {
		// The restore landed; the unlock must not be skipped by a
		// cancellation arriving now.
		ulCtx := context.WithoutCancel(ctx)
		restoreErr = retryTransient(func() error { return ct.rt.Driver().Unlock(ulCtx, target.ctr.ID()) })
	}
	var sres suspendResult
	gate.Block(func() { sres = <-suspended })

	// Victim leg: commit the checkpoint, or thaw the victim back to
	// serving. Either way the target leg below still settles the target
	// into a consistent state.
	var victimErr error
	if sres.err == nil {
		ct.swappedOut(victim, sres.saved, sres.took)
	} else {
		victimErr = ct.abortSwapOut(ctx, victim, "checkpointing GPU state", sres.err)
	}

	// Target leg: the driver rolled a failed restore back to
	// Checkpointed (or left it Locked after an unlock failure), so
	// failBack restores the SwappedOut contract.
	if restoreErr != nil {
		ferr := ct.failBack(ctx, target, "restoring GPU state", restoreErr)
		if victimErr != nil {
			// The victim's failure is the root cause; the restore only
			// aborted because the exchange cancelled it.
			return fmt.Errorf("%w (target restore aborted: %w)", victimErr, restoreErr)
		}
		return ferr
	}
	if err := ct.resume(ctx, target, tXfer); err != nil {
		return err
	}
	if victimErr != nil {
		// The target is serving but the victim leg failed and was thawed
		// back to Running; report the partial failure.
		return victimErr
	}
	ct.reg.Histogram("swap_exchange_latency").Observe(ct.clock.Since(t0))
	ct.reg.Counter("swap_exchanges").Inc()
	return nil
}
