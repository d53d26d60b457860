// Package split is facts testdata: one walk serves both lockcheck and
// the summaries, but test-file functions stay out of the summaries,
// and the locks a *Locked method holds by convention stay out of every
// interprocedural consumer.
package split

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

// sendLocked holds b.mu by convention; its send blocks.
func (b *box) sendLocked() {
	b.ch <- 1
}

// Send takes the lock itself, so its send blocks under an acquired lock.
func (b *box) Send() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 1
}
