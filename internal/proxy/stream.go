package proxy

import (
	"bytes"
	"fmt"

	"swapservellm/internal/proxy/ir"
)

// StreamTranslator converts one upstream SSE event at a time into the
// client's framing. Upstream streams are always canonical OpenAI SSE;
// OpenAI clients get a byte-exact passthrough, Ollama clients get each
// event re-encoded as an NDJSON line. Because the mapping is 1:1 per
// upstream event, the gateway's delivered-event counter means the same
// thing under both framings — which is what lets exact-resume failover
// generalize from SSE to NDJSON without new bookkeeping. A translator
// reuses its decode scratch between events, so it serves one stream.
type StreamTranslator struct {
	out         ir.Codec
	re          ir.Reframer
	passthrough bool
}

// Passthrough reports whether events are forwarded byte-exact.
func (t *StreamTranslator) Passthrough() bool { return t.passthrough }

// ContentType returns the client-facing stream content type.
func (t *StreamTranslator) ContentType() string { return t.framing().ContentType() }

// framing is the client-facing stream framing.
func (t *StreamTranslator) framing() ir.Framing {
	if t.passthrough {
		return ir.FramingSSE
	}
	return t.out.Framing()
}

// AppendFrames translates one upstream SSE event (the "data: ..."
// payload line, without the trailing blank line) into zero or more
// client frames appended to dst. done reports that the upstream stream
// is complete; the caller must stop relaying after it. A passthrough
// translator echoes the event verbatim in SSE framing.
func (t *StreamTranslator) AppendFrames(dst, event []byte) (frames []byte, done bool, err error) {
	if t.passthrough {
		return append(append(dst, event...), "\n\n"...), isDone(event), nil
	}
	frames, done, err = t.re.AppendFrames(dst, event)
	if err != nil {
		return nil, false, fmt.Errorf("%w: stream event: %w", ErrTranslate, err)
	}
	return frames, done, nil
}

// isDone reports whether an upstream SSE event is the terminal [DONE]
// sentinel.
func isDone(event []byte) bool {
	return string(bytes.TrimSpace(bytes.TrimPrefix(bytes.TrimSpace(event), []byte("data:")))) == ir.DoneSentinel
}
