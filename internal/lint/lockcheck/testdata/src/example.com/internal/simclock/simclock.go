// Package simclock is lockcheck testdata: the virtual clock's own
// package is checked like any other, even though the interprocedural
// analyzers leave its bodies out.
package simclock

import "sync"

type clock struct {
	mu  sync.Mutex
	now int
}

func (c *clock) tickLocked() { c.now++ }

func (c *clock) Tick() {
	c.tickLocked() // want `call to c.tickLocked without holding c's mutex`
}

func (c *clock) read() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Advance() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tickLocked()
	return c.read() // want `read acquires c.mu which is already held here: guaranteed deadlock`
}

// settleLocked drops and retakes the caller's lock.
func (c *clock) settleLocked() {
	c.mu.Unlock()
	c.mu.Lock() // want `c.mu.Lock\(\) has no matching defer c.mu.Unlock\(\) or later Unlock\(\) in this function`
}
