package simclock

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// deep recurses n frames of 1 KiB each, growing (and so copying) the
// goroutine's stack, then runs fn at the bottom.
func deep(n int, fn func()) {
	var pad [1024]byte
	if n == 0 {
		fn()
		return
	}
	deep(n-1, fn)
	runtime.KeepAlive(pad)
}

func TestGoroutineIdentity(t *testing.T) {
	const n = 8
	ids := make(chan uintptr, n)
	var alive, release sync.WaitGroup
	alive.Add(n)
	release.Add(1)
	for i := 0; i < n; i++ {
		go func() {
			ids <- gid()
			alive.Done()
			release.Wait() // keep every goroutine live until all reported
		}()
	}
	alive.Wait()
	release.Done()
	seen := map[uintptr]bool{gid(): true}
	for i := 0; i < n; i++ {
		id := <-ids
		if seen[id] {
			t.Fatalf("two live goroutines share identity %#x", id)
		}
		seen[id] = true
	}

	id := gid()
	deep(256, func() {
		if got := gid(); got != id {
			t.Fatalf("identity moved from %#x to %#x across stack growth", id, got)
		}
		runtime.GC()
		if got := gid(); got != id {
			t.Fatalf("identity moved from %#x to %#x across GC", id, got)
		}
	})
	runtime.GC()
	if got := gid(); got != id {
		t.Fatalf("identity moved from %#x to %#x after the recursion returned", id, got)
	}

	// A registration made at the top of the stack holds at the bottom:
	// the deep Sleep gives up its token and time moves.
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	deep(256, func() { v.Sleep(time.Second) })
	if got := v.Since(vEpoch); got != time.Second {
		t.Fatalf("deep registered Sleep advanced %v, want 1s", got)
	}
}

// BenchmarkGateWait measures one registered Wait whose timer fires, with
// the caller at two stack depths. Its cost must not grow with the depth,
// and a Wait in steady state allocates nothing.
func BenchmarkGateWait(b *testing.B) {
	for _, depth := range []int{0, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			v := NewVirtual(vEpoch)
			g := v.Gate()
			g.Enter()
			defer g.Exit()
			deep(depth, func() {
				g.Wait(time.Millisecond) // fill the free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.Wait(time.Millisecond)
				}
			})
		})
	}
}
