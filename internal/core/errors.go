package core

import "errors"

// The package's error vocabulary, consolidated so callers have
// canonical errors.Is targets:
//
//   - ErrNoCapacity: a reservation exceeds a device's total capacity —
//     no amount of preemption can grant it. Permanent for the given
//     (model, device) pair.
//   - ErrBackendFailed: the backend's engine failed to initialize (or a
//     rollback left it unusable); requests to it are rejected until the
//     deployment is rebuilt.
//
// Swap paths additionally propagate (wrapped) sentinels from the layers
// below: cudackpt.ErrBadState / cudackpt.ErrHostMemory,
// cgroup.ErrNotFound, gpu.ErrOutOfMemory, chaos.ErrInjected, and
// context.Canceled / context.DeadlineExceeded for ctx aborts honored at
// chunk boundaries and queue waits.
var (
	ErrNoCapacity    = errors.New("core: reservation exceeds device capacity")
	ErrBackendFailed = errors.New("core: backend failed to initialize")
)

// errBackendFailed is the historical unexported alias of
// ErrBackendFailed, kept so existing internal call sites read the same.
var errBackendFailed = ErrBackendFailed
