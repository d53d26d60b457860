//go:build amd64 || arm64

package simclock

// getg returns the address of the calling goroutine's runtime
// descriptor, which the scheduler keeps in thread-local storage (amd64)
// or a dedicated register (arm64).
func getg() uintptr

// gid returns the calling goroutine's identity in a few instructions at
// any stack depth. A descriptor never moves, and the runtime hands it to
// a new goroutine only after its goroutine exits, by which time every
// registration it held has ended at its final Exit (see Gate).
func gid() uintptr { return getg() }
