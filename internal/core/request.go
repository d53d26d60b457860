package core

import (
	"context"
	"net/http"
	"time"
)

// forwardResult carries the backend's response (or failure) to the router
// goroutine holding the client connection.
type forwardResult struct {
	resp *http.Response
	err  error
}

// queuedRequest is the unit the request handler enqueues (§3.1 ②): the
// inference request, its response channel, and metadata.
type queuedRequest struct {
	// ctx is the client request context; cancellation abandons the work.
	// Carrying it in the queue item is the same exception the standard
	// library makes for http.Request: the struct IS the call, handed
	// across a channel to the worker that executes it.
	ctx context.Context
	// path is the engine API path the request targets
	// (/v1/chat/completions or /v1/completions).
	path string
	// body is the re-serialized OpenAI request forwarded to the engine.
	body []byte
	// arrivedAt is the arrival timestamp (simulated time).
	arrivedAt time.Time
	// result is the worker's one answer, set before answered closes.
	result forwardResult
	// answered is closed by the worker once result is set. A closed
	// channel, unlike a buffered send a parked receiver takes directly,
	// stays observable to a gate BlockOn's ready check.
	answered chan struct{}
	// done is closed by the router when the response has been fully
	// relayed to the client, ending the request's in-flight accounting.
	done chan struct{}
	// retired is closed by the worker once it has finished its own
	// accounting (pending, in-flight) for a request it answered. The
	// router waits for it before returning, so a client that has read
	// the whole response never sees the request still pending.
	retired chan struct{}
}

// newQueuedRequest builds a queued request.
func newQueuedRequest(ctx context.Context, path string, body []byte, now time.Time) *queuedRequest {
	return &queuedRequest{
		ctx:       ctx,
		path:      path,
		body:      body,
		arrivedAt: now,
		answered:  make(chan struct{}),
		done:      make(chan struct{}),
		retired:   make(chan struct{}),
	}
}
