package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/config"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/gpu"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

// exchangeServer builds a one-GPU deployment with a swapped-out target
// (initialized first, snapshotted, paused) and a keep-warm victim
// holding the device, so serving the target is an exchange: its
// swap-in must evict the victim.
func exchangeServer(t *testing.T, pipelined bool, opts Options) (*Server, *Backend, *Backend) {
	t.Helper()
	cfg := config.Default()
	cfg.Global.PipelinedSwap = pipelined
	target := vllmModel("llama3.2:1b-fp16")
	victim := vllmModel("llama3.2:3b-fp16")
	victim.KeepWarm = true
	cfg.Models = []config.Model{target, victim}
	if opts.Clock == nil {
		opts.Clock = virtualTestClock(t)
	}
	s, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	tb, _ := s.Backend("llama3.2:1b-fp16")
	vb, _ := s.Backend("llama3.2:3b-fp16")
	return s, vb, tb
}

func checkExchanged(t *testing.T, s *Server, victim, target *Backend) {
	t.Helper()
	if st := victim.State(); st != BackendSwappedOut {
		t.Fatalf("victim state = %v, want swapped-out", st)
	}
	if st := target.State(); st != BackendRunning {
		t.Fatalf("target state = %v, want running", st)
	}
	if got := s.Driver().HostPledged(); got != 0 {
		t.Fatalf("host pledged after exchange = %d", got)
	}
	if got := s.TaskManager().Reserved(0); got != 0 {
		t.Fatalf("reserved headroom leaked: %d", got)
	}
	// The target must be genuinely servable.
	serverChat(t, s, target.Name(), 2)
}

// serveExchange swaps the target in through the serving entry point; the
// reservation's reclaim evicts the victim to make room.
func serveExchange(ctx context.Context, s *Server, target *Backend) error {
	return s.Scheduler().EnsureRunning(ctx, target)
}

func TestSwapExchangeSequential(t *testing.T) {
	s, victim, target := exchangeServer(t, false, Options{})
	if err := serveExchange(context.Background(), s, target); err != nil {
		t.Fatal(err)
	}
	checkExchanged(t, s, victim, target)
}

func TestSwapExchangePipelined(t *testing.T) {
	s, victim, target := exchangeServer(t, true, Options{})
	if !s.Controller().Pipelined() {
		t.Fatal("pipelined flag not wired from config")
	}
	if err := serveExchange(context.Background(), s, target); err != nil {
		t.Fatal(err)
	}
	checkExchanged(t, s, victim, target)
	if n := s.Registry().Histogram("swap_exchange_latency").Count(); n != 1 {
		t.Fatalf("swap_exchange_latency count = %d", n)
	}
	if n := s.Registry().Counter("swap_exchanges").Value(); n != 1 {
		t.Fatalf("swap_exchanges = %v", n)
	}
}

// TestSwapExchangeRecordsSwapLatencies checks that both exchange modes
// feed the same per-leg metrics as SwapOut and SwapIn: one
// swap_out_latency sample for the victim and one swap_in_latency sample
// for the target, alongside the swap_outs and swap_ins counters.
func TestSwapExchangeRecordsSwapLatencies(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			s, victim, target := exchangeServer(t, pipelined, Options{})
			reg := s.Registry()
			outs := reg.Histogram("swap_out_latency").Count()
			ins := reg.Histogram("swap_in_latency").Count()
			outCount := reg.Counter("swap_outs").Value()
			inCount := reg.Counter("swap_ins").Value()
			if err := serveExchange(context.Background(), s, target); err != nil {
				t.Fatal(err)
			}
			checkExchanged(t, s, victim, target)
			for _, c := range []struct {
				hist, counter string
				before        int
				beforeCount   float64
			}{
				{"swap_out_latency", "swap_outs", outs, outCount},
				{"swap_in_latency", "swap_ins", ins, inCount},
			} {
				h := reg.Histogram(c.hist)
				if got := h.Count() - c.before; got != 1 {
					t.Errorf("%s samples from one exchange = %d, want 1", c.hist, got)
				}
				if got := reg.Counter(c.counter).Value() - c.beforeCount; got != 1 {
					t.Errorf("%s from one exchange = %v, want 1", c.counter, got)
				}
				if h.Max() <= 0 {
					t.Errorf("%s max = %v, want a positive latency", c.hist, h.Max())
				}
			}
		})
	}
}

func TestSwapExchangePipelinedOverlaps(t *testing.T) {
	// Both directions of the exchange must be in flight at once: the
	// victim's first D2H chunk blocks until the target's first H2D chunk
	// has been observed, which can only happen if the restore really
	// starts before the checkpoint finishes.
	s, victim, target := exchangeServer(t, true, Options{})
	victimPID := victim.Container().ID()
	targetPID := target.Container().ID()

	// The hooks wait through the gate: a hook parked on the other
	// direction must not hold virtual time still.
	gate := simclock.GateFor(s.Clock())
	d2h := make(chan struct{})
	h2d := make(chan struct{})
	var d2hOnce, h2dOnce sync.Once
	s.Driver().OnChunk(func(ev cudackpt.ChunkEvent) {
		switch {
		case ev.PID == victimPID && ev.Dir == perfmodel.DirD2H:
			d2hOnce.Do(func() { close(d2h) })
			gate.BlockOn(h2d, func() bool { return simclock.Closed(h2d) }, func() {
				select {
				case <-h2d:
				case <-time.After(30 * time.Second):
					t.Error("target restore never started while victim checkpoint was in flight")
				}
			})
		case ev.PID == targetPID && ev.Dir == perfmodel.DirH2D:
			h2dOnce.Do(func() { close(h2d) })
			gate.BlockOn(d2h, func() bool { return simclock.Closed(d2h) }, func() {
				select {
				case <-d2h:
				case <-time.After(30 * time.Second):
					t.Error("victim checkpoint never started while target restore was in flight")
				}
			})
		}
	})
	if err := serveExchange(context.Background(), s, target); err != nil {
		t.Fatal(err)
	}
	checkExchanged(t, s, victim, target)
}

func TestSwapExchangePipelinedVictimFaultRollsBack(t *testing.T) {
	// A one-shot operation fault on the victim's checkpoint: the victim
	// thaws back to serving, and the served swap-in's reclaim retries the
	// eviction, so the request still gets its target.
	inj := chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		// After: 1 skips the target's init-time snapshot checkpoint.
		{Site: chaos.SiteCkptCheckpoint, P: 1, After: 1, Times: 1},
	}})
	s, victim, target := exchangeServer(t, true, Options{Chaos: inj})
	if err := serveExchange(context.Background(), s, target); err != nil {
		t.Fatalf("exchange under a one-shot checkpoint fault: %v", err)
	}
	if got := inj.Stats()[chaos.SiteCkptCheckpoint].Fired; got != 1 {
		t.Fatalf("checkpoint faults fired = %d, want 1", got)
	}
	checkExchanged(t, s, victim, target)
}

func TestSwapExchangePipelinedVictimPersistentFaultRollsBack(t *testing.T) {
	// The victim's checkpoint keeps failing (operation fault, not a
	// chunk fault) until the request's deadline: every attempt must thaw
	// the victim back to a serving state, and the deadline must abort the
	// target's restore, leaving it swapped-out with all accounting
	// balanced.
	inj := chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		// After: 1 skips the target's init-time snapshot checkpoint.
		{Site: chaos.SiteCkptCheckpoint, P: 1, After: 1},
	}})
	s, victim, target := exchangeServer(t, true, Options{Chaos: inj})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := serveExchange(ctx, s, target)
	if err == nil {
		t.Fatal("exchange succeeded despite a persistent checkpoint fault")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if inj.Stats()[chaos.SiteCkptCheckpoint].Fired == 0 {
		t.Fatal("no checkpoint fault fired")
	}
	if st := victim.State(); st != BackendRunning {
		t.Fatalf("victim state = %v, want running after rollback", st)
	}
	if st := target.State(); st != BackendSwappedOut {
		t.Fatalf("target state = %v, want swapped-out after rollback", st)
	}
	if got := s.Driver().HostPledged(); got != 0 {
		t.Fatalf("host pledged after failed exchange = %d", got)
	}
	if got := s.TaskManager().Reserved(0); got != 0 {
		t.Fatalf("reserved headroom leaked: %d", got)
	}
	// Both backends must still be usable: the victim serves immediately,
	// and the exchange succeeds once chaos is disarmed.
	s.Driver().SetChaos(nil)
	serverChat(t, s, victim.Name(), 2)
	if err := serveExchange(context.Background(), s, target); err != nil {
		t.Fatal(err)
	}
	checkExchanged(t, s, victim, target)
}

func TestEvictionsOverlapAcrossDevices(t *testing.T) {
	// Per-GPU eviction serialization: evicting on device 0 and device 1
	// concurrently must overlap. Each eviction's first checkpoint chunk
	// blocks until the other eviction's first chunk is seen — possible
	// only if neither holds a lock the other needs.
	cfg := config.Default()
	a := ollamaModel("deepseek-r1:14b-fp16")
	a.KeepWarm = true
	b := ollamaModel("deepseek-r1:7b-q4")
	b.KeepWarm = true
	b.GPUs = []int{1}
	cfg.Models = []config.Model{a, b}
	clock := virtualTestClock(t)
	s := startServer(t, cfg, Options{Clock: clock})
	s.Driver().SetChunkBytes(256 << 20)

	ba, _ := s.Backend(a.Name)
	bb, _ := s.Backend(b.Name)
	pidA := ba.Container().ID()
	pidB := bb.Container().ID()

	gate := clock.Gate()
	firstA := make(chan struct{})
	firstB := make(chan struct{})
	var onceA, onceB sync.Once
	s.Driver().OnChunk(func(ev cudackpt.ChunkEvent) {
		switch ev.PID {
		case pidA:
			onceA.Do(func() { close(firstA) })
			if gate.Wait(30*time.Second, firstB) < 0 {
				t.Error("eviction on gpu1 never progressed during eviction on gpu0")
			}
		case pidB:
			onceB.Do(func() { close(firstB) })
			if gate.Wait(30*time.Second, firstA) < 0 {
				t.Error("eviction on gpu0 never progressed during eviction on gpu1")
			}
		}
	})

	evictions := simclock.NewGroup(clock)
	results := make([]bool, 2)
	evictions.Go(func() {
		_, results[0] = s.Controller().EvictOne(context.Background(), 0, "", nil)
	})
	evictions.Go(func() {
		_, results[1] = s.Controller().EvictOne(context.Background(), 1, "", nil)
	})
	evictions.Wait()
	if !results[0] || !results[1] {
		t.Fatalf("evictions failed: gpu0=%v gpu1=%v", results[0], results[1])
	}
}

func TestSameDeviceEvictionsSerialize(t *testing.T) {
	// Two concurrent reclaim loops on the same device must not stampede:
	// the per-device lock serializes them, so the two victims' chunk
	// streams never interleave.
	cfg := config.Default()
	a := ollamaModel("deepseek-r1:14b-fp16")
	a.KeepWarm = true
	b := ollamaModel("deepseek-r1:7b-q4")
	b.KeepWarm = true
	cfg.Models = []config.Model{a, b}
	clock := virtualTestClock(t)
	s := startServer(t, cfg, Options{Clock: clock})
	s.Driver().SetChunkBytes(256 << 20)

	ba, _ := s.Backend(a.Name)
	bb, _ := s.Backend(b.Name)
	pids := map[string]string{ba.Container().ID(): "a", bb.Container().ID(): "b"}

	var mu sync.Mutex
	var order []string
	s.Driver().OnChunk(func(ev cudackpt.ChunkEvent) {
		if name, ok := pids[ev.PID]; ok {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	})

	evictions := simclock.NewGroup(clock)
	results := make([]bool, 2)
	evictions.Go(func() {
		_, results[0] = s.Controller().EvictOne(context.Background(), 0, b.Name, nil)
	})
	evictions.Go(func() {
		_, results[1] = s.Controller().EvictOne(context.Background(), 0, a.Name, nil)
	})
	evictions.Wait()
	if !results[0] || !results[1] {
		t.Fatalf("evictions failed: %v %v", results[0], results[1])
	}
	mu.Lock()
	defer mu.Unlock()
	switches := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			switches++
		}
	}
	if switches > 1 {
		t.Fatalf("same-device evictions interleaved (%d switches): %v", switches, order)
	}
}

func TestIncrementalGrantBeforeCheckpointFinishes(t *testing.T) {
	// A pending reservation smaller than the victim's footprint must be
	// granted from the first freed chunks, long before the checkpoint
	// finishes.
	clock := virtualTestClock(t)
	topo := gpu.NewTopology(perfmodel.GPUH100, 1, 80*gib)
	tm := NewTaskManager(clock, topo)
	tb, _ := perfmodel.TestbedByName("h100")
	drv := cudackpt.NewDriver(clock, tb, 0)
	dev, _ := topo.Device(0)
	if err := drv.Register("victim", dev, perfmodel.EngineVLLM, 16*gib); err != nil {
		t.Fatal(err)
	}
	if err := dev.Alloc("victim", 75*gib); err != nil {
		t.Fatal(err)
	}
	drv.OnChunk(func(ev cudackpt.ChunkEvent) {
		if ev.Dir == perfmodel.DirD2H {
			tm.NotifyFreed()
		}
	})

	suspended := make(chan error, 1)
	checkpoint := simclock.NewGroup(clock)
	checkpoint.Go(func() {
		_, err := drv.Suspend(context.Background(), "victim")
		suspended <- err
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tm.Reserve(ctx, []int{0}, 10*gib, "incoming")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-suspended:
		t.Fatal("reservation granted only after the whole checkpoint finished")
	default:
	}
	res.Release()
	checkpoint.Wait()
	if serr := <-suspended; serr != nil {
		t.Fatal(serr)
	}
	if got := tm.Reserved(0); got != 0 {
		t.Fatalf("Reserved = %d after release", got)
	}
}

func TestCancelledReservationReturnsPartialClaims(t *testing.T) {
	tm, topo := newTM(t, 1)
	dev, _ := topo.Device(0)
	if err := dev.Alloc("squatter", 80*gib); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var werr error
	waiter := simclock.NewGroup(tm.clock)
	waiter.Go(func() { _, werr = tm.Reserve(ctx, []int{0}, 40*gib, "w") })
	tm.clock.Sleep(100 * time.Second) // let the waiter enqueue

	// Free 10 GiB: the head claims it incrementally but stays queued.
	if err := dev.Resize("squatter", 70*gib); err != nil {
		t.Fatal(err)
	}
	tm.NotifyFreed()
	if got := tm.Reserved(0); got != 10*gib {
		t.Fatalf("partial claim = %d, want %d", got, 10*gib)
	}

	cancel()
	waiter.Wait()
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("err = %v", werr)
	}
	if got := tm.Reserved(0); got != 0 {
		t.Fatalf("cancelled reservation leaked %d claimed bytes", got)
	}
	if tm.PendingCount() != 0 {
		t.Fatalf("pending queue not cleaned: %d", tm.PendingCount())
	}
}

// TestQueuedReservationBarrier checks that a queued claim is a FIFO
// barrier: freed memory accrues to it, not to a later request.
func TestQueuedReservationBarrier(t *testing.T) {
	tm, topo := newTM(t, 1)
	dev, _ := topo.Device(0)
	if err := dev.Alloc("squatter", 80*gib); err != nil {
		t.Fatal(err)
	}

	ar, err := tm.enqueue([]int{0}, 40*gib, "t")
	if err != nil {
		t.Fatal(err)
	}
	if simclock.Closed(ar.p.granted) {
		t.Fatal("granted with zero free memory")
	}

	// A later request must queue behind the barrier, not steal freed
	// memory.
	if err := dev.Resize("squatter", 50*gib); err != nil {
		t.Fatal(err)
	}
	tm.NotifyFreed()
	if got := tm.Reserved(0); got != 30*gib {
		t.Fatalf("partial claim = %d, want %d", got, 30*gib)
	}
	if got := tm.Available(0); got != 0 {
		t.Fatalf("Available = %d with barrier holding all freed memory", got)
	}

	if err := dev.Resize("squatter", 40*gib); err != nil {
		t.Fatal(err)
	}
	tm.NotifyFreed()
	if !simclock.Closed(ar.p.granted) {
		t.Fatal("barrier not granted after enough memory freed")
	}
	if got := tm.Reserved(0); got != 40*gib {
		t.Fatalf("Reserved = %d after full grant", got)
	}
	ar.Release()
	ar.Release() // idempotent
	if got := tm.Reserved(0); got != 0 {
		t.Fatalf("Reserved = %d after release", got)
	}
}

func TestQueuedReservationReleaseReturnsPartialClaims(t *testing.T) {
	tm, topo := newTM(t, 1)
	dev, _ := topo.Device(0)
	if err := dev.Alloc("squatter", 80*gib); err != nil {
		t.Fatal(err)
	}
	ar, err := tm.enqueue([]int{0}, 40*gib, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Resize("squatter", 65*gib); err != nil {
		t.Fatal(err)
	}
	tm.NotifyFreed()
	if got := tm.Reserved(0); got != 15*gib {
		t.Fatalf("partial claim = %d", got)
	}
	ar.Release()
	if got := tm.Reserved(0); got != 0 {
		t.Fatalf("released partial claim leaked %d bytes", got)
	}
	if tm.PendingCount() != 0 {
		t.Fatalf("pending queue not cleaned: %d", tm.PendingCount())
	}
}

// headroomAudit installs a chunk hook that checks, at every transfer
// chunk, that the task manager's reserved headroom on each device is
// backed by free memory — a restore that allocated outside its own
// claim would have eaten into headroom another reservation holds.
// Reading both sides under tm.mu is exact: a claim-fed restore allocates
// and consumes its claim in one step under that lock.
func headroomAudit(t *testing.T, s *Server, gpus ...int) func() []string {
	t.Helper()
	tm := s.TaskManager()
	var mu sync.Mutex
	var violations []string
	s.Driver().OnChunk(func(ev cudackpt.ChunkEvent) {
		for _, id := range gpus {
			dev, _ := s.Topology().Device(id)
			tm.mu.Lock()
			free, held := dev.Free(), tm.reserved[id]
			tm.mu.Unlock()
			if held > free {
				mu.Lock()
				violations = append(violations, fmt.Sprintf("gpu%d after %s %s chunk %d: reserved %d > free %d",
					id, ev.PID, ev.Dir, ev.Done, held, free))
				mu.Unlock()
			}
		}
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), violations...)
	}
}

// awaitSettled waits, in simulated time, for a swap of b started in the
// background to finish: a served swap-in returns once its target
// serves, which can be before the victim's last chunks beyond the claim
// have checkpointed.
func awaitSettled(t *testing.T, s *Server, b *Backend) {
	t.Helper()
	for i := 0; b.State() == BackendSwapping; i++ {
		if i > 1000 {
			t.Fatalf("%s swap never settled", b.Name())
		}
		s.Clock().Sleep(10 * time.Millisecond)
	}
}

// ensureAll runs the served swap-in of every backend concurrently and
// returns their errors in order.
func ensureAll(s *Server, bs ...*Backend) []error {
	errs := make([]error, len(bs))
	swapIns := simclock.NewGroup(s.Clock())
	for i, b := range bs {
		swapIns.Go(func() { errs[i] = s.Scheduler().EnsureRunning(context.Background(), b) })
	}
	swapIns.Wait()
	return errs
}

func TestConcurrentPipelinedSwapInsStayInTheirClaims(t *testing.T) {
	// Two targets pipeline into one GPU at once, both fed by the same
	// victim's checkpoint. Each restore may only allocate what its own
	// reservation holds, so neither steals the other's headroom and
	// neither runs out of memory.
	cfg := config.Default()
	cfg.Global.PipelinedSwap = true
	a := vllmModel("llama3.2:1b-fp16")
	a.GPUMemoryUtilization = 0.4
	b := vllmModel("llama3.2:3b-fp16")
	b.GPUMemoryUtilization = 0.4
	v := vllmModel("llama3.1:8b-fp16")
	v.KeepWarm = true
	cfg.Models = []config.Model{a, b, v}
	s := startServer(t, cfg, Options{Clock: virtualTestClock(t)})
	ta, _ := s.Backend(a.Name)
	tb, _ := s.Backend(b.Name)
	victim, _ := s.Backend(v.Name)
	violations := headroomAudit(t, s, 0)

	// Record which restores were in flight together.
	var mu sync.Mutex
	inFlight := map[string]bool{}
	overlapped := false
	s.Driver().OnChunk(func(ev cudackpt.ChunkEvent) {
		if ev.Dir != perfmodel.DirH2D {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		inFlight[ev.PID] = ev.Done < ev.Total
		if inFlight[ta.Container().ID()] && inFlight[tb.Container().ID()] {
			overlapped = true
		}
	})

	for i, err := range ensureAll(s, ta, tb) {
		if errors.Is(err, gpu.ErrOutOfMemory) {
			t.Fatalf("swap-in %d ran out of memory: %v", i, err)
		}
		if err != nil {
			t.Fatalf("swap-in %d: %v", i, err)
		}
	}
	if v := violations(); len(v) > 0 {
		t.Fatalf("a restore allocated outside its claim:\n%s", v[0])
	}
	mu.Lock()
	if !overlapped {
		t.Error("the two restores never ran concurrently")
	}
	mu.Unlock()
	for _, be := range []*Backend{ta, tb} {
		if st := be.State(); st != BackendRunning {
			t.Fatalf("%s state = %v, want running", be.Name(), st)
		}
	}
	if st := victim.State(); st != BackendSwappedOut {
		t.Fatalf("victim state = %v, want swapped-out", st)
	}
	if got := s.Driver().HostPledged(); got != 0 {
		t.Fatalf("host pledged = %d", got)
	}
	if got := s.TaskManager().Reserved(0); got != 0 {
		t.Fatalf("reserved headroom leaked: %d", got)
	}
}

func TestTensorParallelPipelinedSwapInUsesPerDeviceClaims(t *testing.T) {
	// A 2-GPU target needs room on both devices, each held by its own
	// keep-warm victim: the reservation claims per device as each
	// victim's checkpoint frees memory, and the restore fills each
	// device's shard only from that device's claim.
	cfg := config.Default()
	cfg.Global.PipelinedSwap = true
	target := vllmModel("deepseek-r1:14b-fp16")
	target.GPUs = []int{0, 1}
	v0 := vllmModel("llama3.2:1b-fp16")
	v0.KeepWarm = true
	v1 := vllmModel("llama3.2:3b-fp16")
	v1.KeepWarm = true
	v1.GPUs = []int{1}
	cfg.Models = []config.Model{target, v0, v1}
	s := startServer(t, cfg, Options{Clock: virtualTestClock(t)})
	tb, _ := s.Backend(target.Name)
	b0, _ := s.Backend(v0.Name)
	b1, _ := s.Backend(v1.Name)
	violations := headroomAudit(t, s, 0, 1)

	if err := s.Scheduler().EnsureRunning(context.Background(), tb); err != nil {
		t.Fatal(err)
	}
	if v := violations(); len(v) > 0 {
		t.Fatalf("the restore allocated outside its per-device claims:\n%s", v[0])
	}
	if st := tb.State(); st != BackendRunning {
		t.Fatalf("target state = %v, want running", st)
	}
	// The shards restore in parallel, so the target can land while the
	// second victim's last chunks (beyond the claim) still checkpoint.
	awaitSettled(t, s, b1)
	for _, be := range []*Backend{b0, b1} {
		if st := be.State(); st != BackendSwappedOut {
			t.Fatalf("victim %s state = %v, want swapped-out", be.Name(), st)
		}
	}
	for _, id := range []int{0, 1} {
		dev, _ := s.Topology().Device(id)
		if got := dev.OwnerUsage(tb.Container().ID()); got != tb.RequiredBytes()/2 {
			t.Fatalf("target shard on gpu%d = %d, want %d", id, got, tb.RequiredBytes()/2)
		}
		if got := s.TaskManager().Reserved(id); got != 0 {
			t.Fatalf("reserved headroom leaked on gpu%d: %d", id, got)
		}
	}
	if n := s.Registry().Counter("swap_exchanges").Value(); n != 1 {
		t.Fatalf("swap_exchanges = %v, want 1", n)
	}
}

func TestServedExchangeVictimFaultAfterTargetLandedSucceeds(t *testing.T) {
	// The victim's checkpoint is held back until the target is serving,
	// then hits a chunk fault that exhausts its retries. Its freed
	// memory now holds the target, so the checkpoint cannot roll back:
	// it rolls forward, and the request that swapped the target in
	// succeeds.
	s, victim, target := exchangeServer(t, true, Options{})
	victimPID := victim.Container().ID()
	gate := simclock.GateFor(s.Clock())
	landed := make(chan struct{})
	s.Driver().OnChunk(func(ev cudackpt.ChunkEvent) {
		// The target's claim is full after the victim's 64th chunk.
		if ev.PID == victimPID && ev.Dir == perfmodel.DirD2H && ev.Done == 66*gib {
			gate.BlockOn(landed, func() bool { return simclock.Closed(landed) }, func() { <-landed })
		}
	})
	if err := serveExchange(context.Background(), s, target); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if st := target.State(); st != BackendRunning {
		t.Fatalf("target state = %v, want running", st)
	}
	if st := victim.State(); st != BackendSwapping {
		t.Fatalf("victim state = %v, want its swap-out still in flight", st)
	}
	inj := chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Site: chaos.SiteCkptChunk, P: 1, Times: 3},
	}})
	s.Driver().SetChaos(inj)
	close(landed)
	awaitSettled(t, s, victim)
	if got := inj.Stats()[chaos.SiteCkptChunk].Fired; got != 3 {
		t.Fatalf("chunk faults fired = %d, want 3", got)
	}
	checkExchanged(t, s, victim, target)
}

func TestReclaimSkipsEvictionOnceClaimFilled(t *testing.T) {
	// A small target lands and serves while the victim's checkpoint is
	// still running. A second target's reclaim waits for the device's
	// eviction turn meanwhile; by the time it gets the turn, the victim's
	// freed memory has filled its claim, so it must not evict the first
	// target.
	cfg := config.Default()
	cfg.Global.PipelinedSwap = true
	a := vllmModel("llama3.2:1b-fp16")
	a.GPUMemoryUtilization = 0.2
	b := vllmModel("llama3.2:3b-fp16")
	b.GPUMemoryUtilization = 0.6
	v := vllmModel("llama3.1:8b-fp16")
	v.KeepWarm = true
	cfg.Models = []config.Model{a, b, v}
	s := startServer(t, cfg, Options{Clock: virtualTestClock(t)})
	ta, _ := s.Backend(a.Name)
	tb, _ := s.Backend(b.Name)
	victim, _ := s.Backend(v.Name)
	outs := s.Registry().Counter("swap_outs").Value()

	// Queue the small target first: its goroutine starts once this one
	// parks, and the second starts only after its claim is queued (or,
	// with time moving meanwhile, already granted and landed).
	gate := simclock.GateFor(s.Clock())
	swapIns := simclock.NewGroup(s.Clock())
	errs := make(chan error, 2)
	swapIns.Go(func() { errs <- s.Scheduler().EnsureRunning(context.Background(), ta) })
	// The ready check takes the task manager's lock, which only a
	// goroutine holding its run token ever holds, so the clock's probe
	// at quiescence never waits on it.
	queued := func() bool { return s.TaskManager().PendingCount() > 0 || ta.State() == BackendRunning }
	gate.BlockOn(ta, queued, func() {
		for !queued() {
			time.Sleep(100 * time.Microsecond)
		}
	})
	swapIns.Go(func() { errs <- s.Scheduler().EnsureRunning(context.Background(), tb) })
	swapIns.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("swap-in: %v", err)
		}
	}
	for _, be := range []*Backend{ta, tb} {
		if st := be.State(); st != BackendRunning {
			t.Fatalf("%s state = %v, want running", be.Name(), st)
		}
	}
	if st := victim.State(); st != BackendSwappedOut {
		t.Fatalf("victim state = %v, want swapped-out", st)
	}
	if got := s.Registry().Counter("swap_outs").Value() - outs; got != 1 {
		t.Fatalf("swap-outs = %v, want only the victim's", got)
	}
}
