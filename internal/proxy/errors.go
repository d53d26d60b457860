package proxy

import "errors"

// Package error vocabulary. Call sites wrap these with %w and callers
// classify with errors.Is, per the repo's error conventions.
var (
	// ErrUnknownProtocol marks a protocol name with no registered codec.
	ErrUnknownProtocol = errors.New("proxy: unknown protocol")
	// ErrTranslate marks a protocol-translation failure at the front
	// door (including chaos-injected ones at the proxy.translate site);
	// the gateway answers it with a well-formed 503 rather than a 400,
	// because the client's payload may have been valid.
	ErrTranslate = errors.New("proxy: translating request")
	// ErrTooLarge marks a request whose canonical encoding outgrows the
	// body size bound every hop reads under; the edge answers it 413.
	ErrTooLarge = errors.New("proxy: request body too large")
	// ErrStreamCut marks an upstream stream that ended before its
	// terminal event (a dead node or an injected proxy.sse cut); a
	// replica can resume it where it stopped.
	ErrStreamCut = errors.New("proxy: upstream stream interrupted")
)
