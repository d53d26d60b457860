//go:build !amd64 && !arm64

package simclock

import (
	"runtime"
	"sync"
)

// stackBufs holds the buffers gid parses stack headers from: a local
// array escapes to the heap through runtime.Stack, so each call would
// allocate one.
var stackBufs = sync.Pool{New: func() any { return new([64]byte) }}

// gid returns the calling goroutine's id, parsed from the stack header
// ("goroutine N [running]:"). It is the portable fallback for
// architectures without a getg: runtime.Stack walks the whole stack, so
// each call costs microseconds and grows with the stack's depth.
func gid() uintptr {
	buf := stackBufs.Get().(*[64]byte)
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uintptr
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	stackBufs.Put(buf)
	return id
}
