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
	"errors"
	"fmt"
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

// ReadSSEEvent reads one blank-line-delimited SSE event from br
// (without the trailing blank line). A non-nil error may accompany a
// final partial event.
func ReadSSEEvent(br *bufio.Reader) (string, error) {
	var lines []string
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimRight(line, "\r\n")
		if err != nil {
			return strings.Join(lines, "\n"), err
		}
		if line == "" {
			if len(lines) == 0 {
				continue // leading keep-alive blank line
			}
			return strings.Join(lines, "\n"), nil
		}
		lines = append(lines, line)
	}
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
