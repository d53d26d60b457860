//go:build !amd64 && !arm64

package simclock

import "runtime"

// gid returns the calling goroutine's id, parsed from the stack header
// ("goroutine N [running]:"). It is the portable fallback for
// architectures without a getg: runtime.Stack walks the whole stack, so
// each call costs microseconds and grows with the stack's depth.
func gid() uintptr {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uintptr
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
