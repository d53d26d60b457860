// Package split is facts testdata: test-file functions are not
// walked, a *Locked method starts with nothing held, and a deferred
// unlock leaves its lock held.
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
