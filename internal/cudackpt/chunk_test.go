package cudackpt

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/gpu"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

// TestChunkedAccountingBalancedAtEveryBoundary audits the conservation
// invariant at every chunk boundary of a full suspend/resume cycle:
// device bytes + image bytes must equal the transfer goal, and the
// driver's host usage must equal the sum of all images.
func TestChunkedAccountingBalancedAtEveryBoundary(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	if err := dev.Alloc("p", 12*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p", dev, perfmodel.EngineOllama, gib); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var d2h, h2d int
	var violations []string
	d.OnChunk(func(ev ChunkEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Dir == perfmodel.DirD2H {
			d2h++
		} else {
			h2d++
		}
		var imageSum int64
		for _, pi := range d.ProcInfos() {
			if pi.Transferring {
				if pi.DeviceBytes+pi.ImageBytes != pi.TransferGoal {
					violations = append(violations, "conservation broken for "+pi.PID)
				}
			}
			if pi.Loc == LocRAM {
				imageSum += pi.ImageBytes
			}
		}
		if d.HostUsed() != imageSum {
			violations = append(violations, "hostUsed != image sum")
		}
	})

	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(context.Background(), "p", nil); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		t.Fatalf("chunk-boundary violations: %v", violations)
	}
	if d2h != 12 || h2d != 12 {
		t.Fatalf("chunk events d2h=%d h2d=%d, want 12 each for a 12 GiB image", d2h, h2d)
	}
	if got := d.HostPledged(); got != 0 {
		t.Fatalf("host pledge leaked: %d", got)
	}
}

// TestMonolithicChunkSizeMatchesChunkedTiming proves the chunk split is
// timing-neutral: the same cycle with chunking disabled takes the same
// simulated time and emits exactly one chunk event per direction.
func TestMonolithicChunkSizeMatchesChunkedTiming(t *testing.T) {
	elapsed := func(chunkBytes int64) (time.Duration, int) {
		d, dev, clock := newDriver(t, 0)
		d.SetChunkBytes(chunkBytes)
		if err := dev.Alloc("p", 8*gib); err != nil {
			t.Fatal(err)
		}
		if err := d.Register("p", dev, perfmodel.EngineOllama, gib); err != nil {
			t.Fatal(err)
		}
		events := 0
		d.OnChunk(func(ChunkEvent) { events++ })
		start := clock.Now()
		if _, err := d.Suspend(context.Background(), "p"); err != nil {
			t.Fatal(err)
		}
		if err := d.Resume(context.Background(), "p", nil); err != nil {
			t.Fatal(err)
		}
		return clock.Now().Sub(start), events
	}
	chunked, nChunked := elapsed(DefaultChunkBytes)
	mono, nMono := elapsed(0)
	if nChunked != 16 || nMono != 2 {
		t.Fatalf("chunk events = %d (chunked), %d (monolithic); want 16 and 2", nChunked, nMono)
	}
	diff := chunked - mono
	if diff < 0 {
		diff = -diff
	}
	// The split telescopes in simulated time.
	if diff > 150*time.Millisecond {
		t.Fatalf("chunked cycle %v vs monolithic %v differ by %v", chunked, mono, diff)
	}
}

// TestChunkFaultAbortsCheckpoint exhausts the per-chunk retry budget
// mid-checkpoint and verifies the rollback: the process ends up Running
// again with its device allocation intact and no host bytes leaked.
func TestChunkFaultAbortsCheckpoint(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	if err := dev.Alloc("p", 6*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p", dev, perfmodel.EngineOllama, gib); err != nil {
		t.Fatal(err)
	}
	// Fire on every consultation: the bounded internal retries exhaust
	// on the first chunk and the checkpoint aborts.
	d.SetChaos(chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Site: chaos.SiteCkptChunk, P: 1},
	}}))
	_, err := d.Suspend(context.Background(), "p")
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Suspend = %v, want injected chunk fault", err)
	}
	if st, _ := d.State("p"); st != StateRunning {
		t.Fatalf("state after aborted checkpoint = %v, want running", st)
	}
	if got := dev.OwnerUsage("p"); got != 6*gib {
		t.Fatalf("device bytes after rollback = %d, want %d", got, 6*gib)
	}
	if d.HostUsed() != 0 || d.HostPledged() != 0 {
		t.Fatalf("host accounting leaked: used=%d pledged=%d", d.HostUsed(), d.HostPledged())
	}
	if img, _ := d.ImageBytes("p"); img != 0 {
		t.Fatalf("image after rollback = %d", img)
	}
}

// TestChunkFaultAbortsRestore exhausts the chunk retries mid-restore and
// verifies the rollback: the process stays Checkpointed with its full
// image and no device bytes claimed.
func TestChunkFaultAbortsRestore(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	if err := dev.Alloc("p", 6*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p", dev, perfmodel.EngineOllama, gib); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	// Abort partway through: the first two chunks commit, then the
	// retries exhaust on the third.
	d.SetChaos(chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Site: chaos.SiteCkptChunk, P: 1, After: 2},
	}}))
	err := d.Resume(context.Background(), "p", nil)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Resume = %v, want injected chunk fault", err)
	}
	if st, _ := d.State("p"); st != StateCheckpointed {
		t.Fatalf("state after aborted restore = %v, want checkpointed", st)
	}
	if img, _ := d.ImageBytes("p"); img != 6*gib {
		t.Fatalf("image after rollback = %d, want %d", img, 6*gib)
	}
	if got := dev.OwnerUsage("p"); got != 0 {
		t.Fatalf("device bytes after rollback = %d, want 0", got)
	}
	if d.HostUsed() != 6*gib {
		t.Fatalf("host used after rollback = %d, want %d", d.HostUsed(), 6*gib)
	}
	// The image is still restorable once the fault clears.
	d.SetChaos(nil)
	if err := d.Resume(context.Background(), "p", nil); err != nil {
		t.Fatalf("Resume after rollback: %v", err)
	}
}

// TestCheckpointRollsForwardWhenCapacityClaimed pins the roll-forward
// branch: when a checkpoint aborts mid-pipeline but its freed device
// capacity has already been claimed by another workload, the driver
// cannot give the memory back, so it completes the checkpoint instead
// of rolling back.
func TestCheckpointRollsForwardWhenCapacityClaimed(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	if err := dev.Alloc("p", 8*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p", dev, perfmodel.EngineOllama, gib); err != nil {
		t.Fatal(err)
	}
	// As soon as the first chunk frees capacity, a squatter grabs every
	// free byte, so the rollback's re-allocation cannot succeed.
	var once sync.Once
	d.OnChunk(func(ev ChunkEvent) {
		once.Do(func() {
			if err := dev.Alloc("squatter", dev.Free()); err != nil {
				t.Errorf("squatter alloc: %v", err)
			}
		})
	})
	// First chunk passes, then the retry budget exhausts on the second.
	d.SetChaos(chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Site: chaos.SiteCkptChunk, P: 1, After: 1},
	}}))
	img, err := d.Suspend(context.Background(), "p")
	if err != nil {
		t.Fatalf("Suspend rolled back instead of forward: %v", err)
	}
	if img != 8*gib {
		t.Fatalf("image = %d, want %d", img, 8*gib)
	}
	if st, _ := d.State("p"); st != StateCheckpointed {
		t.Fatalf("state = %v, want checkpointed", st)
	}
	if got := dev.OwnerUsage("p"); got != 0 {
		t.Fatalf("device bytes after roll-forward = %d, want 0", got)
	}
	if d.HostUsed() != 8*gib || d.HostPledged() != 0 {
		t.Fatalf("host accounting: used=%d pledged=%d", d.HostUsed(), d.HostPledged())
	}
}

// TestPipelinedExchangeOverlapsTransfers drives the tentpole scenario at
// the driver level: an 72 GiB victim checkpoint (D2H) and an 72 GiB
// target restore (H2D) run concurrently on one device. Full-duplex PCIe
// means neither stretches the other, so the exchange completes in
// roughly the slower transfer's time rather than the sum.
func TestPipelinedExchangeOverlapsTransfers(t *testing.T) {
	d, dev, clock := newDriver(t, 0)
	// Build target's host image first: it runs, checkpoints out.
	if err := dev.Alloc("target", 72*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("target", dev, perfmodel.EngineVLLM, 16*gib); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Suspend(context.Background(), "target"); err != nil {
		t.Fatal(err)
	}
	// Victim now occupies the device.
	if err := dev.Alloc("victim", 72*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("victim", dev, perfmodel.EngineVLLM, 16*gib); err != nil {
		t.Fatal(err)
	}

	tb := perfmodel.H100()
	saveDur := tb.CheckpointSave(72 * gib)
	restoreDur := tb.CheckpointRestore(72*gib, 16*gib, perfmodel.EngineVLLM) -
		perfmodel.EngineResumeOverhead(perfmodel.EngineVLLM)

	start := clock.Now()
	victim := simclock.NewGroup(clock)
	var serr error
	victim.Go(func() { _, serr = d.Suspend(context.Background(), "victim") })
	if err := d.Restore(context.Background(), "target", newFreedClaim(clock, d, dev)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	victim.Wait()
	if serr != nil {
		t.Fatalf("victim Suspend: %v", serr)
	}
	elapsed := clock.Now().Sub(start)

	sequential := saveDur + restoreDur
	if elapsed >= sequential*3/4 {
		t.Fatalf("pipelined exchange took %v, want < 75%% of sequential %v", elapsed, sequential)
	}
	slower := restoreDur
	if saveDur > slower {
		slower = saveDur
	}
	// The driver's transfer totals exclude the lock step (charged by
	// Lock itself), so allow one CkptLock of slack on the lower bound.
	if elapsed < slower-tb.CkptLock {
		t.Fatalf("pipelined exchange took %v, impossibly faster than slower leg %v", elapsed, slower)
	}

	if err := d.Unlock(context.Background(), "target"); err != nil {
		t.Fatal(err)
	}
	if got := dev.OwnerUsage("target"); got != 72*gib {
		t.Fatalf("target device bytes = %d, want %d", got, 72*gib)
	}
	if img, _ := d.ImageBytes("victim"); img != 72*gib {
		t.Fatalf("victim image = %d, want %d", img, 72*gib)
	}
	if d.HostUsed() != 72*gib || d.HostPledged() != 0 {
		t.Fatalf("host accounting: used=%d pledged=%d", d.HostUsed(), d.HostPledged())
	}
}

// TestRestoreClaimCancelRollsBack cancels a restore starved on its
// claim partway through and verifies the partial transfer rolls back
// cleanly.
func TestRestoreClaimCancelRollsBack(t *testing.T) {
	d, dev, clock := newDriver(t, 0)
	if err := dev.Alloc("p", 72*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p", dev, perfmodel.EngineVLLM, 16*gib); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	// A squatter leaves only 5 GiB free: the restore claims five chunks
	// and then starves waiting for capacity that never appears.
	if err := dev.Alloc("squatter", 75*gib); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := d.Restore(ctx, "p", newFreedClaim(clock, d, dev))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Restore = %v, want deadline exceeded", err)
	}
	if st, _ := d.State("p"); st != StateCheckpointed {
		t.Fatalf("state after cancel = %v, want checkpointed", st)
	}
	if img, _ := d.ImageBytes("p"); img != 72*gib {
		t.Fatalf("image after cancel = %d, want %d", img, 72*gib)
	}
	if got := dev.OwnerUsage("p"); got != 0 {
		t.Fatalf("device bytes after cancel = %d, want 0", got)
	}
	if d.HostUsed() != 72*gib {
		t.Fatalf("host used after cancel = %d, want %d", d.HostUsed(), 72*gib)
	}
}

// freedClaim is a test Claim over one device's free memory: each chunk
// waits until the device has room for it — a stand-in for a task-manager
// reservation that grows as a concurrent checkpoint frees capacity. The
// driver's chunk hook signals freed after every committed chunk, and
// counts the signals in chunks (a signal a parked receiver takes never
// shows in len(freed), so the wait's ready check reads the count).
type freedClaim struct {
	clock  simclock.Clock
	dev    *gpu.Device
	freed  chan struct{}
	chunks atomic.Int64
}

func newFreedClaim(clock simclock.Clock, d *Driver, dev *gpu.Device) *freedClaim {
	c := &freedClaim{clock: clock, dev: dev, freed: make(chan struct{}, 1)}
	d.OnChunk(func(ChunkEvent) {
		c.chunks.Add(1)
		select {
		case c.freed <- struct{}{}:
		default:
		}
	})
	return c
}

func (c *freedClaim) Take(ctx context.Context, _ int, bytes int64, alloc func() error) error {
	for c.dev.Free() < bytes {
		var err error
		seen := c.chunks.Load()
		ready := func() bool { return c.chunks.Load() != seen || ctx.Err() != nil }
		simclock.GateFor(c.clock).BlockOn(c, ready, func() {
			select {
			case <-c.freed:
			case <-ctx.Done():
				err = ctx.Err()
			}
		})
		if err != nil {
			return err
		}
	}
	return alloc()
}

// TestSuspendUnlockRetryExhausted covers the retry-exhausted branch of
// the shared transient-retry helper: when the checkpoint faults AND the
// unlock rollback keeps faulting past the retry budget, Suspend reports
// both errors and the process is left Locked.
func TestSuspendUnlockRetryExhausted(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	if err := dev.Alloc("p", 4*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p", dev, perfmodel.EngineOllama, gib); err != nil {
		t.Fatal(err)
	}
	d.SetChaos(chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Site: chaos.SiteCkptCheckpoint, P: 1, Times: 1},
		{Site: chaos.SiteCkptUnlock, P: 1, Times: 4},
	}}))
	_, err := d.Suspend(context.Background(), "p")
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Suspend = %v, want injected fault", err)
	}
	if st, _ := d.State("p"); st != StateLocked {
		t.Fatalf("state after exhausted unlock retries = %v, want locked", st)
	}
	// A later unlock (fault budget spent) recovers the process.
	if err := d.Unlock(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if st, _ := d.State("p"); st != StateRunning {
		t.Fatalf("state after recovery = %v, want running", st)
	}
}
