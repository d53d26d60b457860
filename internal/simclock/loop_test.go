package simclock

import (
	"sync"
	"testing"
	"time"
)

// TestEveryFiresOnInterval: under Virtual the k-th call of a loop lands
// exactly at origin + k·interval.
func TestEveryFiresOnInterval(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	var mu sync.Mutex
	var fired []time.Time
	l := Every(v, 10*time.Second, func() {
		mu.Lock()
		fired = append(fired, v.Now())
		mu.Unlock()
	})
	v.Sleep(45 * time.Second)
	l.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 4 {
		t.Fatalf("fired %d times over 45s at a 10s interval, want 4: %v", len(fired), fired)
	}
	for k, at := range fired {
		if want := vEpoch.Add(time.Duration(k+1) * 10 * time.Second); !at.Equal(want) {
			t.Fatalf("call %d at %v, want %v", k+1, at, want)
		}
	}
}

// TestLoopStopIdempotent: a second Stop returns at once, and a nil Loop
// (one that was never started) stops as a no-op.
func TestLoopStopIdempotent(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	l := Every(v, time.Minute, func() {})
	l.Stop()
	l.Stop()
	var never *Loop
	never.Stop()

	// Non-virtual clocks run the same lifecycle on plain goroutines.
	s := Every(NewScaled(vEpoch, 100000), time.Second, func() {})
	s.Stop()
	s.Stop()
}

// TestLoopStopParkedFromRegistered: stopping a loop parked on a long
// interval from a registered goroutine sheds the caller's token while
// the loop drains, so the deadlock watchdog stays quiet.
func TestLoopStopParkedFromRegistered(t *testing.T) {
	v := NewVirtual(vEpoch)
	v.SetDeadlockTimeout(20 * time.Millisecond)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	l := Every(v, time.Hour, func() {})
	v.Sleep(time.Second) // the loop is now parked on its timer
	done := make(chan struct{})
	g.Go(func() {
		defer close(done)
		l.Stop()
	})
	// A Stop that never returned would leave both goroutines blocked
	// with no pending timer: the watchdog would panic within 20ms.
	g.Block(func() { <-done })
}
