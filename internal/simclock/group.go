package simclock

import (
	"sync"
	"sync/atomic"
)

// Group runs goroutines registered on a clock and waits for them: a
// sync.WaitGroup whose Wait the clock can probe. The zero value is not
// usable; construct with NewGroup.
type Group struct {
	gate *Gate
	wg   sync.WaitGroup
	live atomic.Int64
}

// NewGroup returns an empty group on clock.
func NewGroup(clock Clock) *Group { return &Group{gate: GateFor(clock)} }

// Go runs fn on a new registered goroutine (see Gate.Go).
func (gr *Group) Go(fn func()) {
	gr.live.Add(1)
	gr.wg.Add(1)
	gr.gate.Go(func() {
		defer func() {
			gr.wg.Done()
			gr.live.Add(-1) // after Done: live == 0 means Wait returns at once
			gr.gate.Wake(gr)
		}()
		fn()
	})
}

// Wait blocks until every goroutine the group started has returned.
func (gr *Group) Wait() {
	gr.gate.BlockOn(gr, func() bool { return gr.live.Load() == 0 }, gr.wg.Wait)
}
