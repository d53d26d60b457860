package simclock

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestProbeWakesCancelledBlockOn: a BlockOn whose ready check turns
// true through a context cancel, with no Wake, gets its token back at
// the next quiescence, before a pending timer fires.
func TestProbeWakesCancelledBlockOn(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var woke atomic.Int64
	woke.Store(-1)
	done := make(chan struct{})
	g.Go(func() {
		g.BlockOn(ctx, func() bool { return ctx.Err() != nil }, func() { <-ctx.Done() })
		woke.Store(int64(v.Since(vEpoch)))
		close(done)
	})
	v.Sleep(time.Second) // the child starts and parks first
	cancel()
	v.Sleep(time.Millisecond)
	g.BlockOn(done, func() bool { return Closed(done) }, func() { <-done })
	if got := time.Duration(woke.Load()); got != time.Second {
		t.Fatalf("cancelled BlockOn resumed at +%v, want +1s", got)
	}
}

// TestProbeWakesWaitOnClosedDone: a Wait whose done channel is closed
// by a goroutine that then sleeps returns at the instant of the close,
// not when the closer's sleep ends.
func TestProbeWakesWaitOnClosedDone(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	stop := make(chan struct{})
	var at atomic.Int64
	at.Store(-1)
	finished := make(chan struct{})
	g.Go(func() {
		if got := g.Wait(time.Hour, stop); got != 0 {
			t.Errorf("Wait = %d, want 0 (done)", got)
		}
		at.Store(int64(v.Since(vEpoch)))
		close(finished)
	})
	v.Sleep(time.Second)
	close(stop)
	v.Sleep(time.Millisecond)
	g.BlockOn(finished, func() bool { return Closed(finished) }, func() { <-finished })
	if got := time.Duration(at.Load()); got != time.Second {
		t.Fatalf("Wait returned at +%v, want +1s", got)
	}
}

// TestWakeEndsWaitOn: a peer that closes a WaitOn's done channel and
// wakes its key ends the wait at that instant, and the waiter's token
// is counted once, whether the Wake or the waiter's own retraction
// hands it back.
func TestWakeEndsWaitOn(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	for i := 0; i < 50; i++ {
		key, done := new(int), make(chan struct{})
		returned := make(chan int, 1)
		start := v.Now()
		g.Go(func() { returned <- g.WaitOn(key, time.Hour, done) })
		v.Sleep(time.Second) // the child starts and parks first
		close(done)
		g.Wake(key)
		var got int
		g.BlockOn(returned, func() bool { return len(returned) > 0 }, func() { got = <-returned })
		if got != 0 {
			t.Fatalf("WaitOn = %d, want 0 (done)", got)
		}
		v.Sleep(time.Millisecond) // the child exits
		if d := v.Since(start); d != time.Second+time.Millisecond {
			t.Fatalf("round %d took %v of virtual time, want 1.001s", i, d)
		}
		v.mu.Lock()
		running := v.running
		v.mu.Unlock()
		if running != 1 {
			t.Fatalf("round %d: %d run tokens out after the wait, want this goroutine's 1", i, running)
		}
	}
}

// TestJoinResumesBeforeTimeMoves: a Block(wg.Wait) over Gate.Go
// children is a join: their exits arm a settle, so the joiner resumes
// at the instant the last child finished, ahead of a later timer.
func TestJoinResumesBeforeTimeMoves(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		g.Go(func() {
			defer wg.Done()
			v.Sleep(time.Second)
		})
	}
	late := make(chan struct{})
	g.Go(func() {
		v.Sleep(time.Minute)
		close(late)
	})
	g.Block(wg.Wait)
	if got := v.Since(vEpoch); got != time.Second {
		t.Fatalf("join resumed at +%v, want +1s", got)
	}
	g.BlockOn(late, func() bool { return Closed(late) }, func() { <-late })
}

// TestJoinSkipsSettleForClockOnlyChain: with a join outstanding, a chain
// of sleeps that ends no wait the clock cannot see runs no settle pass.
func TestJoinSkipsSettleForClockOnlyChain(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	var wg sync.WaitGroup
	wg.Add(1)
	var before, after int
	g.Go(func() {
		defer wg.Done()
		before = v.settleCount()
		for i := 0; i < 100; i++ {
			v.Sleep(time.Millisecond)
		}
		after = v.settleCount()
	})
	g.Block(wg.Wait)
	if after != before {
		t.Fatalf("100 clock-only sleeps ran %d settle passes, want 0", after-before)
	}
	if got := v.Since(vEpoch); got != 100*time.Millisecond {
		t.Fatalf("time = %v, want 100ms", got)
	}
}

// TestGroupWaitIsProbed: Group.Wait returns at the instant its last
// goroutine returns.
func TestGroupWaitIsProbed(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	grp := NewGroup(v)
	for i := 1; i <= 3; i++ {
		grp.Go(func() { v.Sleep(time.Duration(i) * time.Second) })
	}
	g.Go(func() { v.Sleep(time.Hour) })
	grp.Wait()
	if got := v.Since(vEpoch); got != 3*time.Second {
		t.Fatalf("Group.Wait returned at +%v, want +3s", got)
	}
}

// BenchmarkAdvance measures one clock jump while a join is outstanding:
// two registered sleepers take turns, each wake a distinct instant, and
// the benchmark goroutine sits in Block(wg.Wait) throughout. The jumps
// end no wait the clock cannot probe, so none should pay a settle.
func BenchmarkAdvance(b *testing.B) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	var wg sync.WaitGroup
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < 2; k++ {
		wg.Add(1)
		g.Go(func() {
			defer wg.Done()
			v.Sleep(time.Duration(k+1) * time.Millisecond)
			for i := k; i < n; i += 2 {
				v.Sleep(2 * time.Millisecond)
			}
		})
	}
	g.Block(wg.Wait)
}
