// Package blocks is gatecheck testdata for its blocking rule: no
// channel, WaitGroup, or select blocking inside a critical section
// unless it runs under the gate or carries a //swaplint:block
// annotation.
package blocks

import (
	"sync"

	"swapservellm/internal/simclock"
)

type box struct {
	mu    sync.Mutex
	gmu   simclock.Mutex
	ch    chan int
	clock simclock.Clock
}

func (b *box) sendHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 1 // want `channel send while holding blocks\.box\.mu`
}

func (b *box) recvHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	<-b.ch // want `channel receive while holding blocks\.box\.mu`
}

func (b *box) wgHeld(wg *sync.WaitGroup) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wg.Wait() // want `WaitGroup\.Wait while holding blocks\.box\.mu`
}

func (b *box) selectHeld(done chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want `select while holding blocks\.box\.mu`
	case <-b.ch:
	case <-done:
	}
}

// Blocking outside any critical section is fine.
func (b *box) recvFree() {
	<-b.ch
}

// Gated blocking sheds the run token — sanctioned. The mutex held
// across it is clock-aware, as the wait rule demands.
func (b *box) recvGated(done chan struct{}) {
	gate := simclock.GateFor(b.clock)
	b.gmu.Lock(gate)
	defer b.gmu.Unlock()
	gate.BlockOn(done, func() bool { return simclock.Closed(done) }, func() { <-done })
}

// Acquiring a clock-aware mutex inside a critical section is an
// acquisition, not a block: its waiters park through the gate.
func (b *box) lockClockAware(m *simclock.Mutex) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m.Lock(simclock.GateFor(b.clock))
	m.Unlock()
}

// Annotated: the author certifies the send cannot stall the gate.
func (b *box) sendAnnotated() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 1 //swaplint:block reason=buffered handoff channel with capacity checked above
}

// drain blocks; its summary carries the channel receive.
func (b *box) drain() {
	<-b.ch
}

// Calling a blocking function while holding the lock is reported at
// the call site, naming the path down to the blocking operation.
func (b *box) drainHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drain() // want `call may block \(.*drain.*channel receive.*\) while holding blocks\.box\.mu`
}

// The annotation also covers interprocedural blocking.
func (b *box) drainAnnotated() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drain() //swaplint:block reason=ch is closed before drainAnnotated can run
}

// A goroutine spawned under the lock does not inherit the critical
// section.
func (b *box) spawnHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go b.drain()
}
