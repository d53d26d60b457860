package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"swapservellm/internal/gpu"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

const gib = int64(1) << 30

var testEpoch = time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)

// newTM builds a task manager on virtualTestClock.
func newTM(t *testing.T, gpuCount int) (*TaskManager, *gpu.Topology) {
	t.Helper()
	clock := virtualTestClock(t)
	topo := gpu.NewTopology(perfmodel.GPUH100, gpuCount, 80*gib)
	return NewTaskManager(clock, topo), topo
}

func TestReserveImmediateGrant(t *testing.T) {
	tm, _ := newTM(t, 1)
	res, err := tm.Reserve(context.Background(), []int{0}, 30*gib, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.Reserved(0); got != 30*gib {
		t.Fatalf("Reserved = %d", got)
	}
	if got := tm.Available(0); got != 50*gib {
		t.Fatalf("Available = %d", got)
	}
	res.Release()
	if got := tm.Reserved(0); got != 0 {
		t.Fatalf("Reserved after release = %d", got)
	}
}

func TestReserveReleaseIdempotent(t *testing.T) {
	tm, _ := newTM(t, 1)
	res, _ := tm.Reserve(context.Background(), []int{0}, 10*gib, "a")
	res.Release()
	res.Release()
	if got := tm.Reserved(0); got != 0 {
		t.Fatalf("double release corrupted accounting: %d", got)
	}
}

func TestReserveTooLarge(t *testing.T) {
	tm, _ := newTM(t, 1)
	if _, err := tm.Reserve(context.Background(), []int{0}, 81*gib, "a"); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("expected ErrNoCapacity, got %v", err)
	}
}

func TestReserveNegative(t *testing.T) {
	tm, _ := newTM(t, 1)
	if _, err := tm.Reserve(context.Background(), []int{0}, -1, "a"); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestReserveUnknownDevice(t *testing.T) {
	tm, _ := newTM(t, 1)
	if _, err := tm.Reserve(context.Background(), []int{3}, gib, "a"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestReserveBlocksUntilRelease(t *testing.T) {
	tm, _ := newTM(t, 1)
	first, err := tm.Reserve(context.Background(), []int{0}, 60*gib, "a")
	if err != nil {
		t.Fatal(err)
	}

	granted := make(chan *Reservation, 1)
	waiter := simclock.NewGroup(tm.clock)
	waiter.Go(func() {
		res, err := tm.Reserve(context.Background(), []int{0}, 40*gib, "b")
		if err != nil {
			t.Errorf("blocked Reserve: %v", err)
			return
		}
		granted <- res
	})

	tm.clock.Sleep(150 * time.Second)
	select {
	case <-granted:
		t.Fatal("40 GiB granted while 60 GiB reserved on an 80 GiB device")
	default:
	}
	first.Release()
	waiter.Wait()
	select {
	case res := <-granted:
		res.Release()
	default:
		t.Fatal("reservation not granted after release")
	}
}

func TestReserveFIFOOrder(t *testing.T) {
	// A large request queued first must be granted before a later small
	// one (strict FIFO prevents starvation).
	tm, _ := newTM(t, 1)
	first, _ := tm.Reserve(context.Background(), []int{0}, 70*gib, "a")

	var order []string
	var mu sync.Mutex
	waiters := simclock.NewGroup(tm.clock)
	record := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}

	waiters.Go(func() {
		res, err := tm.Reserve(context.Background(), []int{0}, 50*gib, "big")
		if err == nil {
			record("big")
			res.Release()
		}
	})
	tm.clock.Sleep(100 * time.Second) // let "big" enqueue first
	waiters.Go(func() {
		res, err := tm.Reserve(context.Background(), []int{0}, 40*gib, "small")
		if err == nil {
			record("small")
			res.Release()
		}
	})
	tm.clock.Sleep(100 * time.Second)
	first.Release()
	waiters.Wait()
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("grant order = %v, want big first", order)
	}
}

func TestReserveCancellation(t *testing.T) {
	tm, _ := newTM(t, 1)
	first, _ := tm.Reserve(context.Background(), []int{0}, 70*gib, "a")
	ctx, cancel := context.WithCancel(context.Background())
	var err error
	waiter := simclock.NewGroup(tm.clock)
	waiter.Go(func() { _, err = tm.Reserve(ctx, []int{0}, 40*gib, "b") })
	tm.clock.Sleep(100 * time.Second)
	cancel()
	waiter.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if tm.PendingCount() != 0 {
		t.Fatalf("pending queue not cleaned: %d", tm.PendingCount())
	}
	first.Release()
	// A later reservation must still work.
	res, err := tm.Reserve(context.Background(), []int{0}, 40*gib, "c")
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
}

func TestConcurrentSmallReservations(t *testing.T) {
	// §3.4: multiple requests that fit together are granted concurrently.
	tm, _ := newTM(t, 1)
	reservers := simclock.NewGroup(tm.clock)
	var granted atomic.Int32
	for i := 0; i < 4; i++ {
		reservers.Go(func() {
			res, err := tm.Reserve(context.Background(), []int{0}, 16*gib, "m")
			if err != nil {
				t.Errorf("Reserve: %v", err)
				return
			}
			granted.Add(1)
			res.Release()
		})
	}
	reservers.Wait()
	if granted.Load() != 4 {
		t.Fatalf("granted %d of 4", granted.Load())
	}
}

func TestMultiGPUReservation(t *testing.T) {
	tm, topo := newTM(t, 2)
	res, err := tm.Reserve(context.Background(), []int{1, 0, 0}, 40*gib, "tp")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Reserved(0) != 40*gib || tm.Reserved(1) != 40*gib {
		t.Fatalf("reserved: gpu0=%d gpu1=%d", tm.Reserved(0), tm.Reserved(1))
	}
	res.Release()
	if tm.Reserved(0) != 0 || tm.Reserved(1) != 0 {
		t.Fatal("release did not clear both devices")
	}
	_ = topo
}

func TestMultiGPUBlocksOnOneDevice(t *testing.T) {
	tm, topo := newTM(t, 2)
	d1, _ := topo.Device(1)
	d1.Alloc("squatter", 70*gib)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := tm.Reserve(ctx, []int{0, 1}, 40*gib, "tp")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline (blocked on gpu1)", err)
	}
}

// fakeEvictor frees memory from a device on demand.
type fakeEvictor struct {
	dev    *gpu.Device
	owner  string
	calls  atomic.Int32
	refuse bool
}

func (f *fakeEvictor) EvictOne(ctx context.Context, gpuID int, exclude string, needed func() bool) (string, bool) {
	f.calls.Add(1)
	if f.refuse {
		return "", false
	}
	if _, err := f.dev.FreeOwner(f.owner); err != nil {
		return "", false
	}
	return f.owner, true
}

func TestReservePreemptsViaEvictor(t *testing.T) {
	tm, topo := newTM(t, 1)
	dev, _ := topo.Device(0)
	dev.Alloc("resident-model", 70*gib)
	ev := &fakeEvictor{dev: dev, owner: "resident-model"}
	tm.SetEvictor(ev)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := tm.Reserve(ctx, []int{0}, 40*gib, "incoming")
	if err != nil {
		t.Fatalf("Reserve with evictor: %v", err)
	}
	res.Release()
	if ev.calls.Load() == 0 {
		t.Fatal("evictor never invoked")
	}
}

func TestReserveEvictorRefuses(t *testing.T) {
	tm, topo := newTM(t, 1)
	dev, _ := topo.Device(0)
	dev.Alloc("resident-model", 70*gib)
	tm.SetEvictor(&fakeEvictor{dev: dev, owner: "resident-model", refuse: true})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, err := tm.Reserve(ctx, []int{0}, 40*gib, "incoming"); err == nil {
		t.Fatal("Reserve succeeded though evictor refused")
	}
}

func TestNotifyFreedGrantsWaiters(t *testing.T) {
	tm, topo := newTM(t, 1)
	dev, _ := topo.Device(0)
	dev.Alloc("external", 70*gib)

	granted := make(chan struct{})
	waiter := simclock.NewGroup(tm.clock)
	waiter.Go(func() {
		res, err := tm.Reserve(context.Background(), []int{0}, 40*gib, "w")
		if err == nil {
			res.Release()
			close(granted)
		}
	})
	tm.clock.Sleep(100 * time.Second)
	dev.FreeOwner("external")
	tm.NotifyFreed()
	waiter.Wait()
	select {
	case <-granted:
	default:
		t.Fatal("waiter not granted after NotifyFreed")
	}
}

func TestNormalizeGPUs(t *testing.T) {
	cases := []struct {
		in, want []int
	}{
		{nil, []int{0}},
		{[]int{2, 0, 1}, []int{0, 1, 2}},
		{[]int{1, 1, 1}, []int{1}},
		{[]int{3, 1, 3, 1}, []int{1, 3}},
	}
	for _, c := range cases {
		got := normalizeGPUs(c.in)
		if len(got) != len(c.want) {
			t.Errorf("normalizeGPUs(%v) = %v", c.in, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("normalizeGPUs(%v) = %v", c.in, got)
			}
		}
	}
}

// Property: under any interleaving of reservations and releases, the
// granted headroom never exceeds device capacity and never goes negative,
// and once everything is released the accounting returns to zero.
func TestReservationAccountingProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		tm, _ := newTM(t, 1)
		reservers := simclock.NewGroup(tm.clock)
		valid := true
		var mu sync.Mutex
		for _, raw := range sizes {
			bytes := (int64(raw%40) + 1) * gib
			reservers.Go(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				res, err := tm.Reserve(ctx, []int{0}, bytes, "p")
				if err != nil {
					return
				}
				r := tm.Reserved(0)
				mu.Lock()
				if r < 0 || r > 80*gib {
					valid = false
				}
				mu.Unlock()
				res.Release()
			})
		}
		reservers.Wait()
		return valid && tm.Reserved(0) == 0 && tm.PendingCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
