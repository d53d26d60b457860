package ir

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// OpenAICodec translates the OpenAI wire protocol (/v1/*, SSE
// streaming). Since the IR's canonical payloads are the OpenAI shapes,
// this codec is mostly marshal/unmarshal plus validation — it also
// defines the canonical upstream encoding every other protocol
// translates through.
type OpenAICodec struct{}

// Protocol implements Codec.
func (OpenAICodec) Protocol() string { return "openai" }

// Framing implements Codec.
func (OpenAICodec) Framing() Framing { return FramingSSE }

// DecodeRequest implements Codec.
func (OpenAICodec) DecodeRequest(f Family, body []byte) (*Request, error) {
	var req *Request
	var err error
	switch f {
	case FamilyChat:
		var b *chatBox
		b, err = decodeChat(f, body)
		req = &b.req
		req.Model, req.Stream = b.chat.Model, b.chat.Stream
	case FamilyCompletion:
		var p CompletionRequest
		err = json.Unmarshal(body, &p)
		req = &Request{Family: f, Completion: &p, Model: p.Model, Stream: p.Stream}
	case FamilyEmbeddings:
		req, err = decodeList(kindEmbeddings, body)
		req.Model = req.Embeddings.Model
	case FamilyRerank:
		req, err = decodeList(kindRerank, body)
		req.Model = req.Rerank.Model
	default:
		return nil, fmt.Errorf("%w: openai codec cannot decode %q", ErrUnsupported, f)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: malformed JSON: %w", ErrDecode, err)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// Check answers for a body what DecodeRequest would, without building
// the request where a scan can decide (chat, embeddings, rerank): its
// model and stream flag, or DecodeRequest's error.
func (c OpenAICodec) Check(f Family, body []byte) (model string, stream bool, err error) {
	var msgs [4]msgView
	var list [8][]byte
	if k, ok := checkKinds[f]; ok {
		if v, ok := scan(k, body, reqView{msgs: msgs[:0], list: list[:0]}); ok && v.valid(k) {
			return string(v.model), v.stream, nil
		}
	}
	req, err := c.DecodeRequest(f, body)
	if err != nil {
		return "", false, err
	}
	return req.Model, req.Stream, nil
}

// checkKinds are the families Check scans.
var checkKinds = map[Family]reqKind{FamilyChat: kindChat, FamilyEmbeddings: kindEmbeddings, FamilyRerank: kindRerank}

// EncodeRequest implements Codec: the canonical upstream encoding. A
// FamilyGenerate request encodes as its canonical chat payload, so the
// upstream node and engine see one protocol. The encoding is
// json.Marshal's with <, > and & left unescaped, so that it outgrows a
// client's body only where translation adds to it.
func (OpenAICodec) EncodeRequest(req *Request) ([]byte, error) {
	var b []byte
	var err error
	switch req.Family {
	case FamilyChat, FamilyGenerate:
		b, err = marshalChatRequest(req.Chat)
	case FamilyCompletion:
		b, err = json.Marshal(req.Completion)
	case FamilyEmbeddings:
		b, err = json.Marshal(req.Embeddings)
	case FamilyRerank:
		b, err = json.Marshal(req.Rerank)
	default:
		return nil, fmt.Errorf("%w: openai codec cannot encode %q", ErrUnsupported, req.Family)
	}
	if err != nil {
		return nil, fmt.Errorf("ir: encoding %s request: %w", req.Family, err)
	}
	return unescapeHTML(b), nil
}

// unescapeHTML undoes, in place, the escapes encoding/json writes for
// <, > and & in a JSON document. Escaping each as six bytes would let a
// body within a size bound encode past it.
func unescapeHTML(b []byte) []byte {
	w := 0
	for r := 0; r < len(b); r, w = r+1, w+1 {
		c := b[r]
		if c == '\\' && r+6 <= len(b) && string(b[r+1:r+4]) == "u00" {
			if h, ok := htmlEscapes[string(b[r+4:r+6])]; ok {
				c, r = h, r+5
			}
		} else if c == '\\' { // a two-byte escape, "\\" among them, is copied whole
			b[w], w, r, c = c, w+1, r+1, b[r+1]
		}
		b[w] = c
	}
	return b[:w]
}

// htmlEscapes maps encoding/json's HTML escapes to their bytes.
var htmlEscapes = map[string]byte{"3c": '<', "3e": '>', "26": '&'}

// DecodeResponse implements Codec.
func (OpenAICodec) DecodeResponse(f Family, body []byte) (*Response, error) {
	resp := &Response{Family: f}
	var err error
	switch f {
	case FamilyChat, FamilyGenerate:
		resp.Chat, err = decodeChatResponse(body)
	case FamilyCompletion:
		var p CompletionResponse
		err = json.Unmarshal(body, &p)
		resp.Completion = &p
	case FamilyEmbeddings:
		var p EmbeddingsResponse
		err = json.Unmarshal(body, &p)
		resp.Embeddings = &p
	case FamilyRerank:
		var p RerankResponse
		err = json.Unmarshal(body, &p)
		resp.Rerank = &p
	default:
		return nil, fmt.Errorf("%w: openai codec cannot decode %q response", ErrUnsupported, f)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: malformed %s response: %w", ErrDecode, f, err)
	}
	return resp, nil
}

// EncodeResponse implements Codec.
func (OpenAICodec) EncodeResponse(resp *Response) ([]byte, error) {
	var b []byte
	var err error
	switch resp.Family {
	case FamilyChat, FamilyGenerate:
		b, err = marshalChatResponse(resp.Chat)
	case FamilyCompletion:
		b, err = json.Marshal(resp.Completion)
	case FamilyEmbeddings:
		b, err = json.Marshal(resp.Embeddings)
	case FamilyRerank:
		b, err = json.Marshal(resp.Rerank)
	default:
		return nil, fmt.Errorf("%w: openai codec cannot encode %q response", ErrUnsupported, resp.Family)
	}
	if err != nil {
		return nil, fmt.Errorf("ir: encoding %s response: %w", resp.Family, err)
	}
	return b, nil
}

// DecodeStreamEvent implements Codec: frame is one SSE data payload
// (the text after "data:", trimmed of framing).
func (OpenAICodec) DecodeStreamEvent(f Family, frame []byte) (*StreamEvent, error) {
	payload := trimDataPrefix(frame)
	if string(payload) == DoneSentinel {
		return &StreamEvent{Done: true}, nil
	}
	chunk, err := decodeChunk(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed stream chunk: %w", ErrDecode, err)
	}
	return &StreamEvent{Chunk: chunk}, nil
}

// EncodeStreamEvent implements Codec: each event renders as one
// "data: ...\n\n" frame. An event that is both Done and carries a
// chunk (the NDJSON folded finish line) renders as two frames — the
// finish chunk followed by the [DONE] sentinel.
func (OpenAICodec) EncodeStreamEvent(f Family, ev *StreamEvent) ([]byte, error) {
	if ev.Chunk == nil && !ev.Done {
		return nil, nil
	}
	return appendSSE(make([]byte, 0, 256), ev)
}

// appendSSE appends EncodeStreamEvent's frames for ev to dst.
func appendSSE(dst []byte, ev *StreamEvent) ([]byte, error) {
	if ev.Chunk != nil {
		var err error
		if dst, err = appendChunk(append(dst, "data: "...), ev.Chunk); err != nil {
			return nil, fmt.Errorf("ir: encoding stream chunk: %w", err)
		}
		dst = append(dst, "\n\n"...)
	}
	if ev.Done {
		dst = append(dst, sseDone...)
	}
	return dst, nil
}

// sseDone is the terminal [DONE] frame.
const sseDone = "data: " + DoneSentinel + "\n\n"

// SSEWriter streams events to an OpenAI client as EncodeStreamEvent's
// frames, flushing each so the stream stays real-time. Frames are
// built in one buffer reused across events.
type SSEWriter struct {
	w       io.Writer
	flusher http.Flusher
	buf     []byte
}

// NewSSEWriter prepares w for SSE streaming. If w is an
// http.ResponseWriter the event-stream headers are set and every event
// is flushed as soon as it is written.
func NewSSEWriter(w io.Writer) *SSEWriter {
	// One buffer holds the largest frame pair, the finish chunk with its
	// usage and the [DONE] sentinel, so a stream allocates it once.
	s := &SSEWriter{w: w, buf: make([]byte, 0, 512)}
	if rw, ok := w.(http.ResponseWriter); ok {
		h := rw.Header()
		h["Content-Type"], h["Cache-Control"], h["Connection"] = SSEType, noCache, keepAlive
		s.flusher, _ = rw.(http.Flusher)
	}
	return s
}

// WriteEvent writes one event's frames.
func (s *SSEWriter) WriteEvent(ev *StreamEvent) error {
	frames, err := appendSSE(s.buf[:0], ev)
	if err != nil {
		return err
	}
	s.buf = frames
	if _, err := s.w.Write(frames); err != nil {
		return err
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return nil
}

// trimDataPrefix strips an optional SSE "data:" prefix and surrounding
// whitespace from an event payload.
func trimDataPrefix(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if rest, ok := bytes.CutPrefix(b, []byte("data:")); ok {
		b = bytes.TrimSpace(rest)
	}
	return b
}
