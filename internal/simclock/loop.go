package simclock

import (
	"sync"
	"time"
)

// Loop is a periodic background task started by Every: the reaper, the
// prefetcher, the GPU monitor, the heartbeat, the rebalancer and the
// pre-warmer all run on one.
type Loop struct {
	clock Clock
	once  sync.Once
	stop  chan struct{}
	done  chan struct{}
}

// Every runs fn on a registered goroutine once per interval of clock
// time, first at one interval after the call, until Stop. Under Virtual
// the waits are gate waits, so the k-th call happens exactly at
// origin + k·interval.
func Every(clock Clock, interval time.Duration, fn func()) *Loop {
	l := &Loop{clock: clock, stop: make(chan struct{}), done: make(chan struct{})}
	gate := GateFor(clock)
	gate.Go(func() {
		defer close(l.done)
		for gate.Wait(interval, l.stop) < 0 {
			fn()
		}
	})
	return l
}

// Stop ends the loop and waits for its goroutine to exit, shedding the
// caller's run token while it drains. It is idempotent, and a nil Loop
// (a loop that was never started) is a no-op. fn must not call Stop.
func (l *Loop) Stop() {
	if l == nil {
		return
	}
	l.once.Do(func() { close(l.stop) })
	GateFor(l.clock).BlockOn(l, func() bool { return Closed(l.done) }, func() { <-l.done })
}

// Closed reports whether ch is closed: the ready check of a BlockOn on
// a channel that is only ever closed.
func Closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
