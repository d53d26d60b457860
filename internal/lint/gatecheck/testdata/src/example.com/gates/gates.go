// Package gates is gatecheck testdata: any mutex that can be held
// across a simulated-clock wait must be a clock-aware simclock.Mutex or
// RWMutex at every site module-wide, and Gate.Enter must pair with
// Gate.Exit.
package gates

import (
	"sync"
	"time"

	"swapservellm/internal/simclock"
)

type backend struct {
	swapMu simclock.Mutex
	clock  simclock.Clock
}

// runGated holds swapMu across a simulated sleep the sanctioned way:
// the mutex is clock-aware, so contending goroutines shed their run
// token.
func (b *backend) runGated() {
	b.swapMu.Lock(simclock.GateFor(b.clock))
	defer b.swapMu.Unlock()
	b.clock.Sleep(time.Millisecond)
}

type legacy struct {
	swapMu sync.Mutex
	clock  simclock.Clock
}

// The pre-refactor regression pattern: a sync mutex held across the
// sleep. One such site is enough to park a waiter without shedding its
// token and stall the advancer.
func (b *legacy) runUngated() {
	b.swapMu.Lock() // want `mutex gates\.legacy\.swapMu can be held across a simulated-clock wait .*clock\.Sleep.* but b\.swapMu is not clock-aware`
	defer b.swapMu.Unlock()
	b.clock.Sleep(time.Millisecond)
}

type poller struct {
	mu    sync.Mutex
	clock simclock.Clock
}

// pause sleeps; its summary carries the wait.
func (p *poller) pause() {
	p.clock.Sleep(time.Millisecond)
}

// tick never sleeps directly — the wait is reached through pause's
// summary, so the acquisition is still reported, with the call path in
// the message.
func (p *poller) tick() {
	p.mu.Lock() // want `mutex gates\.poller\.mu can be held across a simulated-clock wait \(.*pause.*clock\.Sleep.*\) but p\.mu is not clock-aware`
	defer p.mu.Unlock()
	p.pause()
}

type looper struct {
	mu    sync.Mutex
	clock simclock.Clock
	stop  chan struct{}
}

// loopBlocked acquires a sync mutex through gate.Block, the retired
// idiom: its waiters shed their token, but the clock cannot see when
// the lock frees, so the class must still be clock-aware.
func (l *looper) loopBlocked() {
	gate := simclock.GateFor(l.clock)
	gate.Block(l.mu.Lock) // want `mutex gates\.looper\.mu can be held across a simulated-clock wait`
	defer l.mu.Unlock()
	gate.Wait(time.Millisecond, l.stop)
}

// The check is class-level: this body never waits, but the class has
// wait evidence elsewhere, so the plain Lock is still a hazard — the
// holder in loopBlocked may be asleep on the clock while this waiter
// parks with its token.
func (l *looper) loopUngated() {
	l.mu.Lock() // want `mutex gates\.looper\.mu can be held across a simulated-clock wait`
	defer l.mu.Unlock()
}

// A class with no wait evidence anywhere needs no clock-aware lock.
type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) incr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// --- Enter/Exit pairing ---

func (l *looper) enterBalanced() {
	g := simclock.GateFor(l.clock)
	g.Enter()
	defer g.Exit()
}

func (l *looper) enterExplicit() {
	g := simclock.GateFor(l.clock)
	g.Enter()
	g.Exit()
}

func (l *looper) enterLeaky() {
	g := simclock.GateFor(l.clock)
	g.Enter() // want `Gate\.Enter without a matching Gate\.Exit`
}

// Cross-function registration is legitimate when documented.
func (l *looper) enterHandoff() {
	g := simclock.GateFor(l.clock)
	//swaplint:ignore gatecheck the paired Exit runs in the done callback
	g.Enter()
}
