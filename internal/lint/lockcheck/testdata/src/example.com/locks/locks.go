// Package locks is lockcheck testdata: the *Locked convention,
// double-lock detection, and Lock/Unlock pairing.
package locks

import (
	"sync"

	"swapservellm/internal/simclock"
)

type dealer struct {
	mu    sync.Mutex
	count int
}

// --- convention: *Locked callees need the mutex held ---

func (d *dealer) bumpLocked() {
	d.count++
}

func (d *dealer) Bump() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bumpLocked()
}

func (d *dealer) BumpForgot() {
	d.bumpLocked() // want `call to d.bumpLocked without holding d's mutex`
}

// A *Locked method may call sibling *Locked methods freely.
func (d *dealer) doubleLocked() {
	d.bumpLocked()
}

// After unlocking, the convention is violated again.
func (d *dealer) BumpAfterUnlock() {
	d.mu.Lock()
	d.bumpLocked()
	d.mu.Unlock()
	d.bumpLocked() // want `call to d.bumpLocked without holding d's mutex`
}

// Lock state does not leak out of a conditional block.
func (d *dealer) CondLock(b bool) {
	if b {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.bumpLocked()
	}
	d.bumpLocked() // want `call to d.bumpLocked without holding d's mutex`
}

// Goroutines never inherit the caller's lock state.
func (d *dealer) SpawnWhileHeld() {
	d.mu.Lock()
	defer d.mu.Unlock()
	go d.bumpLocked() // want `call to d.bumpLocked without holding d's mutex`
	go func() {
		d.bumpLocked() // want `call to d.bumpLocked without holding d's mutex`
	}()
}

// Calling a Locked method on a DIFFERENT receiver is not covered by the
// seeded state of this *Locked method.
func (d *dealer) crossLocked(other *dealer) {
	other.bumpLocked() // want `call to other.bumpLocked without holding other's mutex`
}

// Package-level Locked helpers only need some lock in scope.
var tableMu sync.Mutex

func rebalanceLocked() {}

func Rebalance() {
	tableMu.Lock()
	defer tableMu.Unlock()
	rebalanceLocked()
}

func RebalanceForgot() {
	rebalanceLocked() // want `call to rebalanceLocked without any mutex held`
}

// --- double lock ---

func (d *dealer) Incr() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.count++
}

func (d *dealer) DeadIncr() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Incr() // want `Incr acquires d.mu which is already held here: guaranteed deadlock`
}

// Same method on a different receiver is fine.
func (d *dealer) IncrOther(other *dealer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	other.Incr()
}

func globalIncr() {
	tableMu.Lock()
	defer tableMu.Unlock()
}

func DeadGlobal() {
	tableMu.Lock()
	defer tableMu.Unlock()
	globalIncr() // want `globalIncr acquires tableMu which is already held here: guaranteed deadlock`
}

// --- pairing ---

func (d *dealer) LeakyLock() {
	d.mu.Lock() // want `d.mu.Lock\(\) has no matching defer d.mu.Unlock\(\) or later Unlock\(\) in this function`
	d.count++
}

func (d *dealer) ExplicitUnlock() {
	d.mu.Lock()
	d.count++
	d.mu.Unlock()
}

func (d *dealer) DeferredInClosure() {
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
	}()
	d.count++
}

type shared struct {
	mu sync.RWMutex
	v  int
}

// RLock must pair with RUnlock specifically.
func (s *shared) ReadMismatch() int {
	s.mu.RLock() // want `s.mu.RLock\(\) has no matching defer s.mu.RUnlock\(\) or later RUnlock\(\) in this function`
	defer s.mu.Unlock()
	return s.v
}

func (s *shared) ReadOK() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.v
}

// --- escape hatch ---

func (d *dealer) handoff() {
	//swaplint:ignore lockcheck ownership transfers to the receiver goroutine
	d.mu.Lock()
}

// --- closures invoked synchronously in the same function ---

// A Lock inside a closure that is assigned and invoked in the same
// function pairs with the enclosing function's deferred Unlock — no
// leak (this was a recorded false positive).
func (d *dealer) LockViaClosure() {
	lock := func() { d.mu.Lock() }
	lock()
	defer d.mu.Unlock()
	d.count++
}

// An unlock inside such a closure still pairs the enclosing Lock.
func (d *dealer) UnlockViaClosure() {
	d.mu.Lock()
	defer func() { d.mu.Unlock() }()
	d.count++
}

// --- clock-aware acquisition ---

type gated struct {
	mu    simclock.Mutex
	clock simclock.Clock
	n     int
}

func (g *gated) bumpLocked() { g.n++ }

// A simclock.Mutex Lock is an acquisition: the *Locked convention and
// the pairing rule both see it.
func (g *gated) Bump() {
	g.mu.Lock(simclock.GateFor(g.clock))
	defer g.mu.Unlock()
	g.bumpLocked()
}

// ... including when it leaks.
func (g *gated) Leaky() {
	g.mu.Lock(simclock.GateFor(g.clock)) // want `g.mu.Lock\(\) has no matching defer g.mu.Unlock\(\) or later Unlock\(\) in this function`
	g.n++
}

type blocked struct {
	mu    sync.Mutex
	clock simclock.Clock
}

// gate.Block(mu.Lock) is still an acquisition to the pairing rule.
func (b *blocked) Leaky() {
	simclock.GateFor(b.clock).Block(b.mu.Lock) // want `b.mu.Lock\(\) has no matching defer b.mu.Unlock\(\) or later Unlock\(\) in this function`
}

// Embedded mutex: the receiver itself is the lock.
type box struct {
	sync.Mutex
	n int
}

func (b *box) addLocked() { b.n++ }

func (b *box) Add() {
	b.Lock()
	defer b.Unlock()
	b.addLocked()
}

func (b *box) AddForgot() {
	b.addLocked() // want `call to b.addLocked without holding b's mutex`
}
