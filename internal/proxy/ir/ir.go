// Package ir is the protocol-neutral intermediate representation the
// multi-protocol front door translates through. Every client wire
// format (OpenAI /v1/*, Ollama /api/*) decodes into an ir.Request,
// forwards upstream in the canonical OpenAI encoding the simulated
// engines speak, and re-encodes responses and stream events back into
// the client's wire format and framing (SSE or NDJSON). Because the
// canonical form is a pure function of the client request, two clients
// asking the same question through different protocols share one cache
// entry and one deterministic engine transcript — which is also what
// makes cross-protocol failover resume exact.
//
// The package is the one wire layer of every HTTP server in the
// system: the wire structs (Message, ChatCompletionRequest, ...), the
// codecs, the SSE frame writer the engines stream through
// (SSEWriter) and the JSON and error-envelope response writers
// (WriteJSON, WriteError) all live here.
package ir

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Family identifies the request family of an endpoint: which canonical
// payload shape it carries and which engine phase serves it.
type Family string

// Request families served by the front door.
const (
	// FamilyChat is chat completions (OpenAI /v1/chat/completions,
	// Ollama /api/chat). Canonical payload: ChatCompletionRequest.
	FamilyChat Family = "chat"
	// FamilyGenerate is Ollama's prompt-style /api/generate; it
	// canonicalizes to a single-user-turn chat request so both protocols
	// reach the same engine path.
	FamilyGenerate Family = "generate"
	// FamilyCompletion is the legacy OpenAI /v1/completions.
	FamilyCompletion Family = "completion"
	// FamilyEmbeddings is /v1/embeddings (batch text → vectors).
	FamilyEmbeddings Family = "embeddings"
	// FamilyRerank is /v1/rerank (query + documents → relevance scores).
	FamilyRerank Family = "rerank"
	// FamilyList is a model listing endpoint (/v1/models, /api/tags);
	// it has no canonical request payload.
	FamilyList Family = "list"
)

// Framing identifies a stream wire framing.
type Framing string

// Stream framings.
const (
	// FramingSSE is server-sent events: "data: {json}\n\n" frames with a
	// terminal "data: [DONE]" sentinel (the OpenAI convention).
	FramingSSE Framing = "sse"
	// FramingNDJSON is newline-delimited JSON: one object per line, the
	// final line carrying "done": true (the Ollama convention).
	FramingNDJSON Framing = "ndjson"
)

// ContentType returns the HTTP Content-Type for the framing.
func (f Framing) ContentType() string {
	if f == FramingNDJSON {
		return "application/x-ndjson"
	}
	return "text/event-stream"
}

// Header values every response that carries them shares. A handler
// assigns one (h["Content-Type"] = ir.JSONType) where Header.Set would
// allocate a slice per response; nobody writes to them.
var (
	JSONType, SSEType, NDJSONType = []string{"application/json"}, []string{FramingSSE.ContentType()}, []string{FramingNDJSON.ContentType()}
	noCache, keepAlive            = []string{"no-cache"}, []string{"keep-alive"}
)

// DoneSentinel is the terminal SSE data payload.
const DoneSentinel = "[DONE]"

// Package error vocabulary. Codec failures wrap these so callers can
// classify with errors.Is.
var (
	// ErrDecode marks a payload the codec could not parse or validate.
	ErrDecode = errors.New("ir: decoding request")
	// ErrUnsupported marks a family the codec does not speak.
	ErrUnsupported = errors.New("ir: unsupported family")
)

// Request is the protocol-neutral form of one inference request.
// Exactly one canonical payload pointer is set, selected by Family
// (FamilyGenerate shares the Chat payload).
type Request struct {
	Family Family
	Model  string
	Stream bool

	Chat       *ChatCompletionRequest
	Completion *CompletionRequest
	Embeddings *EmbeddingsRequest
	Rerank     *RerankRequest
}

// Validate checks the canonical payload for the request's family.
// Payload validation failures are classified as ErrDecode.
func (r *Request) Validate() error {
	var err error
	switch r.Family {
	case FamilyChat, FamilyGenerate:
		if r.Chat == nil {
			return fmt.Errorf("%w: %s request missing chat payload", ErrDecode, r.Family)
		}
		err = r.Chat.Validate()
	case FamilyCompletion:
		if r.Completion == nil {
			return fmt.Errorf("%w: completion request missing payload", ErrDecode)
		}
		err = r.Completion.Validate()
	case FamilyEmbeddings:
		if r.Embeddings == nil {
			return fmt.Errorf("%w: embeddings request missing payload", ErrDecode)
		}
		err = r.Embeddings.Validate()
	case FamilyRerank:
		if r.Rerank == nil {
			return fmt.Errorf("%w: rerank request missing payload", ErrDecode)
		}
		err = r.Rerank.Validate()
	default:
		return fmt.Errorf("%w: %q", ErrUnsupported, r.Family)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrDecode, err)
	}
	return nil
}

// Response is the protocol-neutral form of one buffered (non-stream)
// response; exactly one payload pointer is set, selected by Family.
type Response struct {
	Family Family

	Chat       *ChatCompletionResponse
	Completion *CompletionResponse
	Embeddings *EmbeddingsResponse
	Rerank     *RerankResponse
}

// StreamEvent is one protocol-neutral stream increment. The canonical
// stream is the OpenAI chunk sequence; Done marks the terminal event.
// An SSE [DONE] sentinel decodes to {Done: true, Chunk: nil}; an NDJSON
// final line decodes to {Done: true, Chunk: <finish chunk>} because
// Ollama folds the finish metadata into its last frame.
type StreamEvent struct {
	Chunk *ChatCompletionChunk
	Done  bool
}

// Codec translates one protocol's wire format to and from the IR. A
// codec is stateless and safe for concurrent use.
type Codec interface {
	// Protocol names the wire protocol ("openai", "ollama").
	Protocol() string
	// Framing is the stream framing this protocol's clients expect.
	Framing() Framing
	// DecodeRequest parses and validates a client request body.
	DecodeRequest(f Family, body []byte) (*Request, error)
	// EncodeRequest renders a request in this protocol's wire format.
	EncodeRequest(req *Request) ([]byte, error)
	// DecodeResponse parses a buffered response body.
	DecodeResponse(f Family, body []byte) (*Response, error)
	// EncodeResponse renders a buffered response for this protocol's
	// clients.
	EncodeResponse(resp *Response) ([]byte, error)
	// DecodeStreamEvent parses one stream frame payload (SSE data
	// payload or NDJSON line, without framing delimiters).
	DecodeStreamEvent(f Family, frame []byte) (*StreamEvent, error)
	// EncodeStreamEvent renders one event as zero or more fully framed
	// bytes (delimiters included). A nil result means the event has no
	// frame in this protocol (e.g. the SSE [DONE] sentinel after an
	// NDJSON done-line already carried the finish metadata).
	EncodeStreamEvent(f Family, ev *StreamEvent) ([]byte, error)
}

// SSEReader reads blank-line-delimited SSE events into one buffer
// reused from event to event.
type SSEReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewSSEReader reads events from r.
func NewSSEReader(r io.Reader) *SSEReader {
	return &SSEReader{br: bufio.NewReader(r)}
}

// Next returns the next event without its trailing blank line, its
// lines stripped of their line endings and joined by "\n". The bytes
// stay valid until the next call. A non-nil error may accompany the
// complete lines of a final partial event; a final line cut off
// without its newline is dropped.
func (r *SSEReader) Next() ([]byte, error) {
	r.buf = r.buf[:0]
	for {
		n := len(r.buf)
		var err error
		for {
			var frag []byte
			frag, err = r.br.ReadSlice('\n')
			r.buf = append(r.buf, frag...)
			if !errors.Is(err, bufio.ErrBufferFull) {
				break
			}
		}
		line := bytes.TrimRight(r.buf[n:], "\r\n")
		switch {
		case err != nil:
			return r.buf[:max(n-1, 0)], err
		case len(line) > 0:
			r.buf = append(r.buf[:n+len(line)], '\n')
		case n > 0:
			return r.buf[:n-1], nil
		default:
			r.buf = r.buf[:0] // leading keep-alive blank line
		}
	}
}

// Reframer renders canonical upstream SSE events in a client codec's
// stream framing, one event at a time. It keeps its decode scratch
// between events, so each stream needs its own.
type Reframer struct {
	out    Codec
	family Family
	s      scanner
	v      chunkView
}

// NewReframer renders family f's events for out's clients.
func NewReframer(out Codec, f Family) *Reframer {
	return &Reframer{out: out, family: f}
}

// AppendFrames decodes one canonical SSE event (its data line, without
// the blank line that ends it), appends the frames out's
// EncodeStreamEvent renders for it to dst, and reports whether the
// event was the terminal [DONE]. An Ollama line renders straight from
// the event's bytes, allocating nothing beyond dst.
func (r *Reframer) AppendFrames(dst, event []byte) ([]byte, bool, error) {
	if _, ok := r.out.(OllamaCodec); ok && (r.family == FamilyChat || r.family == FamilyGenerate) {
		payload := trimDataPrefix(event)
		if string(payload) == DoneSentinel {
			return dst, true, nil
		}
		r.s.reset(payload)
		if r.s.chunk(&r.v); r.s.done() {
			return r.v.appendOllama(dst, r.family), false, nil
		}
	}
	ev, err := OpenAICodec{}.DecodeStreamEvent(r.family, event)
	if err != nil {
		return dst, false, err
	}
	frames, err := r.out.EncodeStreamEvent(r.family, ev)
	if err != nil {
		return dst, false, err
	}
	return append(dst, frames...), ev.Done, nil
}

// appendOllama appends the NDJSON line OllamaCodec.EncodeStreamEvent
// renders for the chunk v holds.
func (v *chunkView) appendOllama(dst []byte, f Family) []byte {
	var d deltaView
	if len(v.choices) > 0 {
		d = v.choices[0]
	}
	if !d.finishSet {
		dst = appendOllamaLine(dst, f, v.model, v.created, d.role, d.content, false, nil, 0, 0)
	} else {
		dst = appendOllamaLine(dst, f, v.model, v.created, nil, d.content, true, d.finish,
			v.usage.PromptTokens, v.usage.CompletionTokens)
	}
	return append(dst, '\n')
}

// ReadNDJSONLine reads one NDJSON frame (without the trailing newline).
// Blank lines are skipped. A non-nil error may accompany a final
// partial line.
func ReadNDJSONLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimRight(line, "\r\n")
		if err != nil {
			return line, err
		}
		if line == "" {
			continue
		}
		return line, nil
	}
}
