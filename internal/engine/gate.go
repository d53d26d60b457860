package engine

import (
	"context"
	"sync"

	"swapservellm/internal/simclock"
)

// Gate models the effect of the cgroup freezer on a containerized engine
// process: while paused, the process makes no forward progress — new
// requests are not accepted and in-flight decode loops stall mid-token.
// The container runtime toggles the gate when freezing/thawing the
// engine's cgroup.
type Gate struct {
	clock simclock.Clock // the engine's; nil waits outside any clock gate

	mu     sync.Mutex
	paused bool
	resume chan struct{} // closed on resume; replaced on pause
	freeze chan struct{} // closed on pause; replaced on resume
}

// NewGate returns an open (running) gate.
func NewGate() *Gate {
	g := &Gate{resume: make(chan struct{}), freeze: make(chan struct{})}
	close(g.resume)
	return g
}

// Pause closes the gate: subsequent Wait calls block, and the channel
// pausing returned is closed.
func (g *Gate) Pause() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.paused {
		return
	}
	g.paused = true
	g.resume = make(chan struct{})
	close(g.freeze)
}

// Resume opens the gate, releasing all blocked waiters.
func (g *Gate) Resume() {
	g.mu.Lock()
	opened := g.paused
	if opened {
		g.paused = false
		close(g.resume)
		g.freeze = make(chan struct{})
	}
	g.mu.Unlock()
	if opened {
		simclock.GateFor(g.clock).Wake(g)
	}
}

// Paused reports whether the gate is closed.
func (g *Gate) Paused() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.paused
}

// pausing returns a channel that is closed once the gate pauses: at
// once if it is paused now, else at the next Pause. A decode run waits
// on it, so a freeze ends the run at the token in flight.
func (g *Gate) pausing() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.freeze
}

// Wait blocks until the gate is open or ctx is cancelled. The wait is
// a clock-gate BlockOn that Resume wakes, so a frozen engine's request
// never holds a Virtual clock still.
func (g *Gate) Wait(ctx context.Context) error {
	for {
		g.mu.Lock()
		paused, resume := g.paused, g.resume
		g.mu.Unlock()
		if !paused {
			return nil
		}
		open := func() bool {
			select {
			case <-resume:
				return true
			default:
				return ctx.Err() != nil
			}
		}
		simclock.GateFor(g.clock).BlockOn(g, open, func() {
			select {
			case <-ctx.Done():
			case <-resume:
			}
		})
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}
