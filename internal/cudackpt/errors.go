package cudackpt

import "errors"

// The driver's error vocabulary. Every error returned by this package
// wraps exactly one of these sentinels, so callers branch with
// errors.Is rather than string matching:
//
//   - ErrUnknownProcess: the pid was never registered (or already
//     unregistered). Retrying cannot help; the caller holds a stale
//     handle.
//   - ErrBadState: the requested transition is illegal from the
//     process's current state (e.g. Checkpoint without Lock, Unregister
//     mid-transfer). The state machine was not touched.
//   - ErrHostMemory: the host-memory cap cannot fit the checkpoint
//     image and spilling is off (or exhausted). Retry after freeing
//     images, or enable spill.
//   - ErrAlreadyExists: Register/RegisterSharded for a pid that is
//     already registered.
//
// Chunked transfers additionally surface gpu.ErrOutOfMemory (device
// capacity), chaos.ErrInjected (injected faults), and
// context.Canceled / context.DeadlineExceeded (a mid-transfer abort at
// a chunk boundary) — all wrapped, all matchable with errors.Is.
var (
	ErrUnknownProcess = errors.New("cudackpt: unknown process")
	ErrBadState       = errors.New("cudackpt: invalid state transition")
	ErrHostMemory     = errors.New("cudackpt: host memory exhausted")
	ErrAlreadyExists  = errors.New("cudackpt: process already registered")
)
