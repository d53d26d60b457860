package simclock

import "sync"

// Mutex is a mutual-exclusion lock that may be held across clock waits.
// A contended Lock parks its caller through Gate.BlockOn, so the waiter
// sheds its run token while the holder sleeps on the clock, and Unlock
// hands the lock to the longest waiter and wakes it at once: waiters
// get the lock in arrival order, not in the host scheduler's. The zero
// value is unlocked; off Virtual it is a plain FIFO lock.
type Mutex struct{ rw RWMutex }

// Lock acquires m, parking through g while it is held.
func (m *Mutex) Lock(g *Gate) { m.rw.acquire(g, false) }

// Unlock releases m, handing it to the longest waiter.
func (m *Mutex) Unlock() { m.rw.release(false) }

// RWMutex is Mutex with a shared read side. Waiters are served in
// arrival order: a writer waits for the readers ahead of it, and a
// reader arriving behind a waiting writer waits for that writer.
type RWMutex struct {
	mu      sync.Mutex
	writer  bool
	readers int
	queue   []*lockWaiter
}

// lockWaiter is one parked Lock or RLock. ch is closed once the lock is
// the waiter's (a send would not show in len(ch) to a parked receiver,
// so BlockOn's ready check could miss it); gate wakes it.
type lockWaiter struct {
	gate *Gate
	ch   chan struct{}
	read bool
}

// Lock acquires m for writing, parking through g while it is held.
func (m *RWMutex) Lock(g *Gate) { m.acquire(g, false) }

// RLock acquires m for reading, parking through g while a writer holds
// it or waits for it.
func (m *RWMutex) RLock(g *Gate) { m.acquire(g, true) }

// Unlock releases the write lock.
func (m *RWMutex) Unlock() { m.release(false) }

// RUnlock releases one read lock.
func (m *RWMutex) RUnlock() { m.release(true) }

func (m *RWMutex) acquire(g *Gate, read bool) {
	m.mu.Lock()
	if len(m.queue) == 0 && !m.writer && (read || m.readers == 0) {
		if read {
			m.readers++
		} else {
			m.writer = true
		}
		m.mu.Unlock()
		return
	}
	w := &lockWaiter{gate: g, ch: make(chan struct{}), read: read}
	m.queue = append(m.queue, w)
	m.mu.Unlock()
	g.BlockOn(w, func() bool { return Closed(w.ch) }, func() { <-w.ch })
}

func (m *RWMutex) release(read bool) {
	m.mu.Lock()
	held := m.writer
	if read {
		held = m.readers > 0
	}
	if !held {
		m.mu.Unlock()
		panic("simclock: unlock of unlocked mutex")
	}
	if read {
		m.readers--
	} else {
		m.writer = false
	}
	granted := m.handOffLocked()
	m.mu.Unlock()
	for _, w := range granted {
		close(w.ch)
		w.gate.Wake(w)
	}
}

// handOffLocked takes the waiters at the head of the queue that can
// hold the lock now — one writer, or every reader up to the next writer
// — and gives it to them. Caller holds m.mu.
func (m *RWMutex) handOffLocked() []*lockWaiter {
	n := 0
	for n < len(m.queue) && !m.writer {
		if m.queue[n].read {
			m.readers++
		} else if m.readers > 0 {
			break
		} else {
			m.writer = true
		}
		n++
	}
	granted := m.queue[:n:n]
	m.queue = m.queue[n:]
	return granted
}
