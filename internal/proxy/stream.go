package proxy

import (
	"fmt"
	"strings"

	"swapservellm/internal/proxy/ir"
)

// StreamTranslator converts one upstream SSE event at a time into the
// client's framing. Upstream streams are always canonical OpenAI SSE;
// OpenAI clients get a byte-exact passthrough, Ollama clients get each
// event re-encoded as an NDJSON line. Because the mapping is 1:1 per
// upstream event, the gateway's delivered-event counter means the same
// thing under both framings — which is what lets exact-resume failover
// generalize from SSE to NDJSON without new bookkeeping.
type StreamTranslator struct {
	family      ir.Family
	out         ir.Codec
	passthrough bool
}

// Passthrough reports whether events are forwarded byte-exact.
func (t *StreamTranslator) Passthrough() bool { return t.passthrough }

// ContentType returns the client-facing stream content type.
func (t *StreamTranslator) ContentType() string {
	if t.passthrough {
		return ir.FramingSSE.ContentType()
	}
	return t.out.Framing().ContentType()
}

// Frames translates one upstream SSE event (the "data: ..." payload
// line, without the trailing blank line) into zero or more client
// frames. done reports that the upstream stream is complete; the
// caller must stop relaying after it. A passthrough translator echoes
// the event verbatim in SSE framing.
func (t *StreamTranslator) Frames(event string) (frames []byte, done bool, err error) {
	if t.passthrough {
		return []byte(event + "\n\n"), isDone(event), nil
	}
	ev, err := (ir.OpenAICodec{}).DecodeStreamEvent(t.family, []byte(event))
	if err != nil {
		return nil, false, fmt.Errorf("%w: stream event: %w", ErrTranslate, err)
	}
	frames, err = t.out.EncodeStreamEvent(t.family, ev)
	if err != nil {
		return nil, false, fmt.Errorf("%w: stream event: %w", ErrTranslate, err)
	}
	return frames, ev.Done, nil
}

// isDone reports whether an upstream SSE event is the terminal [DONE]
// sentinel.
func isDone(event string) bool {
	return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(event), "data:")) == ir.DoneSentinel
}
