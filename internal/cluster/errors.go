package cluster

import "errors"

// The package's error vocabulary, consolidated so callers have
// canonical errors.Is targets:
//
//   - ErrUnknownNode: the named node is not a cluster member. Returned
//     by lookup-style operations (drain, undrain, kill); the gateway's
//     HTTP surface maps it to 404.
//   - ErrUnknownPolicy: the configured placement policy name has no
//     registered implementation; construction fails.
//
// Gateway and rebalancer paths additionally propagate (wrapped)
// sentinels from the layers below: core.ErrBackendFailed,
// cudackpt.ErrBadState / cudackpt.ErrHostMemory, chaos.ErrInjected, and
// context.Canceled / context.DeadlineExceeded for client disconnects.
var (
	ErrUnknownNode   = errors.New("cluster: unknown node")
	ErrUnknownPolicy = errors.New("cluster: unknown placement policy")
)
