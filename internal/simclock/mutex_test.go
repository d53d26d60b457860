package simclock

import (
	"sync"
	"testing"
	"time"
)

// TestMutexHandsOffInArrivalOrder: waiters that queue on a Mutex held
// across a clock wait get it in the order they arrived, each at the
// instant the previous holder let go, and time keeps moving while they
// wait.
func TestMutexHandsOffInArrivalOrder(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	var mu Mutex
	var order []int
	var at []time.Duration
	var wg sync.WaitGroup
	mu.Lock(g)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		g.Go(func() {
			defer wg.Done()
			v.Sleep(time.Duration(i) * time.Millisecond) // arrive in index order
			mu.Lock(g)
			order = append(order, i)
			at = append(at, v.Since(vEpoch))
			v.Sleep(time.Second)
			mu.Unlock()
		})
	}
	v.Sleep(time.Second)
	mu.Unlock()
	g.Block(wg.Wait)
	for i, got := range order {
		want := time.Second + time.Duration(i)*time.Second
		if got != i || at[i] != want {
			t.Fatalf("holder %d: waiter %d at +%v, want waiter %d at +%v", i, got, at[i], i, want)
		}
	}
}

// TestRWMutexWriterWaitsForReaders: readers share the lock, a writer
// waits for the readers ahead of it, and a reader arriving behind the
// waiting writer waits for the writer.
func TestRWMutexWriterWaitsForReaders(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	var mu RWMutex
	var wg sync.WaitGroup
	var writerAt, lateReaderAt time.Duration
	mu.RLock(g)
	mu.RLock(g) // a second reader shares it
	wg.Add(2)
	g.Go(func() {
		defer wg.Done()
		mu.Lock(g)
		writerAt = v.Since(vEpoch)
		v.Sleep(time.Second)
		mu.Unlock()
	})
	g.Go(func() {
		defer wg.Done()
		v.Sleep(time.Millisecond) // behind the writer
		mu.RLock(g)
		lateReaderAt = v.Since(vEpoch)
		mu.RUnlock()
	})
	v.Sleep(time.Second)
	mu.RUnlock()
	mu.RUnlock()
	g.Block(wg.Wait)
	if writerAt != time.Second || lateReaderAt != 2*time.Second {
		t.Fatalf("writer at +%v, late reader at +%v; want +1s and +2s", writerAt, lateReaderAt)
	}
}

// TestMutexOffVirtual: on a wall-driven clock the Mutex is a plain lock.
func TestMutexOffVirtual(t *testing.T) {
	g := GateFor(Real{})
	var mu Mutex
	n := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				mu.Lock(g)
				n++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if n != 800 {
		t.Fatalf("n = %d, want 800", n)
	}
}
