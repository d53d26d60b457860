package cudackpt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"swapservellm/internal/gpu"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

const gib = int64(1) << 30

func newDriver(t *testing.T, hostCap int64) (*Driver, *gpu.Device, *simclock.Scaled) {
	t.Helper()
	clock := simclock.NewScaled(time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC), simclock.DefaultScale)
	dev := gpu.NewDevice(0, perfmodel.GPUH100, 80*gib)
	return NewDriver(clock, perfmodel.H100(), hostCap), dev, clock
}

// newVirtualDriver is newDriver on a Virtual clock, with the calling
// test goroutine registered on its gate until the test's cleanups
// finish: simulated durations are then exact deadline arithmetic, free
// of the wall-clock slop a scaled clock adds under host load.
func newVirtualDriver(t testing.TB, hostCap int64) (*Driver, *gpu.Device, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual(time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC))
	gate := clock.Gate()
	gate.Enter()
	t.Cleanup(gate.Exit)
	dev := gpu.NewDevice(0, perfmodel.GPUH100, 80*gib)
	return NewDriver(clock, perfmodel.H100(), hostCap), dev, clock
}

func TestStateString(t *testing.T) {
	if StateRunning.String() != "running" || StateLocked.String() != "locked" || StateCheckpointed.String() != "checkpointed" {
		t.Fatal("state strings wrong")
	}
	if State(42).String() != "state(42)" {
		t.Fatal("unknown state string wrong")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	if err := d.Register("p1", dev, perfmodel.EngineVLLM, gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p1", dev, perfmodel.EngineVLLM, gib); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("expected ErrAlreadyExists, got %v", err)
	}
}

func TestUnknownProcess(t *testing.T) {
	d, _, _ := newDriver(t, 0)
	if err := d.Lock(context.Background(), "ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("Lock: %v", err)
	}
	if _, err := d.State("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("State: %v", err)
	}
	if err := d.Unregister("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("Unregister: %v", err)
	}
	if _, err := d.ImageBytes("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("ImageBytes: %v", err)
	}
}

func TestCheckpointRestoreCycle(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	if err := dev.Alloc("p1", 30*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p1", dev, perfmodel.EngineOllama, 10*gib); err != nil {
		t.Fatal(err)
	}

	// Suspend: GPU memory moves to a host image.
	img, err := d.Suspend(context.Background(), "p1")
	if err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if img != 30*gib {
		t.Fatalf("image = %d, want %d", img, 30*gib)
	}
	if dev.Used() != 0 {
		t.Fatalf("device still holds %d bytes after checkpoint", dev.Used())
	}
	if d.HostUsed() != 30*gib {
		t.Fatalf("host used = %d", d.HostUsed())
	}
	if s, _ := d.State("p1"); s != StateCheckpointed {
		t.Fatalf("state = %v", s)
	}

	// Resume: host image moves back to GPU.
	if err := d.Resume(context.Background(), "p1", nil); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if dev.OwnerUsage("p1") != 30*gib {
		t.Fatalf("device usage after restore = %d", dev.OwnerUsage("p1"))
	}
	if d.HostUsed() != 0 {
		t.Fatalf("host used after restore = %d", d.HostUsed())
	}
	if s, _ := d.State("p1"); s != StateRunning {
		t.Fatalf("state = %v", s)
	}
}

func TestInvalidTransitions(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	dev.Alloc("p", gib)
	d.Register("p", dev, perfmodel.EngineVLLM, gib)

	// Running: checkpoint, restore, and unlock are invalid.
	if _, err := d.Checkpoint(context.Background(), "p"); !errors.Is(err, ErrBadState) {
		t.Fatalf("Checkpoint from running: %v", err)
	}
	if err := d.Restore(context.Background(), "p", nil); !errors.Is(err, ErrBadState) {
		t.Fatalf("Restore from running: %v", err)
	}
	if err := d.Unlock(context.Background(), "p"); !errors.Is(err, ErrBadState) {
		t.Fatalf("Unlock from running: %v", err)
	}

	// Locked: lock again is invalid.
	d.Lock(context.Background(), "p")
	if err := d.Lock(context.Background(), "p"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double Lock: %v", err)
	}
	// Checkpointed: lock and checkpoint are invalid.
	d.Checkpoint(context.Background(), "p")
	if err := d.Lock(context.Background(), "p"); !errors.Is(err, ErrBadState) {
		t.Fatalf("Lock from checkpointed: %v", err)
	}
	if _, err := d.Checkpoint(context.Background(), "p"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double Checkpoint: %v", err)
	}
}

func TestRestoreOOM(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	dev.Alloc("p1", 50*gib)
	d.Register("p1", dev, perfmodel.EngineVLLM, gib)
	if _, err := d.Suspend(context.Background(), "p1"); err != nil {
		t.Fatal(err)
	}
	// Another tenant fills the GPU.
	if err := dev.Alloc("p2", 60*gib); err != nil {
		t.Fatal(err)
	}
	err := d.Restore(context.Background(), "p1", nil)
	if !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("expected OOM on restore, got %v", err)
	}
	// Failed restore keeps the image and state.
	if s, _ := d.State("p1"); s != StateCheckpointed {
		t.Fatalf("state after failed restore = %v", s)
	}
	if img, _ := d.ImageBytes("p1"); img != 50*gib {
		t.Fatalf("image lost after failed restore: %d", img)
	}
	// After the tenant leaves, restore succeeds.
	dev.FreeOwner("p2")
	if err := d.Resume(context.Background(), "p1", nil); err != nil {
		t.Fatalf("Resume after space freed: %v", err)
	}
}

func TestHostMemoryCap(t *testing.T) {
	// Spilling every other image still leaves p2's 45 GiB over the
	// 40 GiB cap: with nothing left to spill, the checkpoint fails.
	d, dev, _ := newDriver(t, 40*gib)
	dev.Alloc("p1", 30*gib)
	dev.Alloc("p2", 45*gib)
	d.Register("p1", dev, perfmodel.EngineVLLM, gib)
	d.Register("p2", dev, perfmodel.EngineVLLM, gib)
	if _, err := d.Suspend(context.Background(), "p1"); err != nil {
		t.Fatal(err)
	}
	_, err := d.Suspend(context.Background(), "p2")
	if !errors.Is(err, ErrHostMemory) {
		t.Fatalf("expected ErrHostMemory, got %v", err)
	}
	// Failed suspend must roll back to running so the engine keeps serving.
	if s, _ := d.State("p2"); s != StateRunning {
		t.Fatalf("state after failed suspend = %v", s)
	}
	// And the device allocation must be intact.
	if dev.OwnerUsage("p2") != 45*gib {
		t.Fatalf("device usage lost: %d", dev.OwnerUsage("p2"))
	}
}

func TestUnregisterReleasesImage(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	dev.Alloc("p", 10*gib)
	d.Register("p", dev, perfmodel.EngineVLLM, gib)
	d.Suspend(context.Background(), "p")
	if d.HostUsed() != 10*gib {
		t.Fatalf("host used = %d", d.HostUsed())
	}
	d.Unregister("p")
	if d.HostUsed() != 0 {
		t.Fatalf("host used after unregister = %d", d.HostUsed())
	}
}

func TestSuspendTimingScalesWithSize(t *testing.T) {
	// A 60 GiB checkpoint must take longer (in simulated time) than a
	// 1 GiB one.
	d, dev, clock := newDriver(t, 0)
	dev.Alloc("small", gib)
	dev.Alloc("large", 60*gib)
	d.Register("small", dev, perfmodel.EngineVLLM, gib)
	d.Register("large", dev, perfmodel.EngineVLLM, gib)

	t0 := clock.Now()
	d.Suspend(context.Background(), "small")
	smallDur := clock.Since(t0)
	t1 := clock.Now()
	d.Suspend(context.Background(), "large")
	largeDur := clock.Since(t1)
	if largeDur <= smallDur {
		t.Fatalf("large suspend %v not slower than small %v", largeDur, smallDur)
	}
}

func TestConcurrentSuspendResume(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	const n = 8
	for i := 0; i < n; i++ {
		pid := fmt.Sprintf("p%d", i)
		if err := dev.Alloc(pid, 4*gib); err != nil {
			t.Fatal(err)
		}
		if err := d.Register(pid, dev, perfmodel.EngineOllama, gib); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		pid := fmt.Sprintf("p%d", i)
		go func() {
			defer wg.Done()
			if _, err := d.Suspend(context.Background(), pid); err != nil {
				errs <- err
				return
			}
			if err := d.Resume(context.Background(), pid, nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent cycle: %v", err)
	}
	if dev.Used() != n*4*gib {
		t.Fatalf("device usage after cycles = %d, want %d", dev.Used(), n*4*gib)
	}
	if d.HostUsed() != 0 {
		t.Fatalf("host usage after cycles = %d", d.HostUsed())
	}
}

func TestZeroByteProcess(t *testing.T) {
	// A process with no device allocations checkpoints to an empty image.
	d, dev, _ := newDriver(t, 0)
	d.Register("idle", dev, perfmodel.EngineVLLM, 0)
	img, err := d.Suspend(context.Background(), "idle")
	if err != nil || img != 0 {
		t.Fatalf("Suspend idle = %d, %v", img, err)
	}
	if err := d.Resume(context.Background(), "idle", nil); err != nil {
		t.Fatalf("Resume idle: %v", err)
	}
}
