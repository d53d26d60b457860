package core

import (
	"sync"
	"time"

	"example.com/badmod/internal/simclock"
)

// waiter trips gatecheck: napMu is held across a simulated sleep but
// acquired with a plain Lock.
type waiter struct {
	napMu sync.Mutex
	clock simclock.Clock
}

func (w *waiter) Nap() {
	w.napMu.Lock()
	defer w.napMu.Unlock()
	w.clock.Sleep(time.Millisecond)
}

// pipe trips gatecheck's blocking rule: an ungated, unannotated
// channel receive inside the critical section.
type pipe struct {
	mu sync.Mutex
	ch chan int
}

func (p *pipe) Drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	<-p.ch
}

// ring trips lockorder: the two mutexes are acquired in both orders on
// different paths — a potential deadlock cycle.
type ring struct {
	a sync.Mutex
	b sync.Mutex
}

func (r *ring) AB() {
	r.a.Lock()
	defer r.a.Unlock()
	r.b.Lock()
	defer r.b.Unlock()
}

func (r *ring) BA() {
	r.b.Lock()
	defer r.b.Unlock()
	r.a.Lock()
	defer r.a.Unlock()
}
