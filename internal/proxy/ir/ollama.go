package ir

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// OllamaMessage is one chat turn on the Ollama wire: plain text content
// with images attached as a base64 array rather than content parts.
type OllamaMessage struct {
	Role    string   `json:"role"`
	Content string   `json:"content"`
	Images  []string `json:"images,omitempty"`
}

// OllamaOptions is the generation-parameter envelope Ollama nests under
// "options".
type OllamaOptions struct {
	NumPredict  int      `json:"num_predict,omitempty"`
	Temperature *float64 `json:"temperature,omitempty"`
	Seed        *int64   `json:"seed,omitempty"`
}

// OllamaChatRequest is the POST /api/chat payload. Streaming defaults
// to ON (the Ollama convention — the opposite of OpenAI's).
type OllamaChatRequest struct {
	Model    string          `json:"model"`
	Messages []OllamaMessage `json:"messages"`
	Stream   *bool           `json:"stream,omitempty"`
	Options  *OllamaOptions  `json:"options,omitempty"`
}

// OllamaGenerateRequest is the POST /api/generate payload.
type OllamaGenerateRequest struct {
	Model   string         `json:"model"`
	Prompt  string         `json:"prompt"`
	System  string         `json:"system,omitempty"`
	Stream  *bool          `json:"stream,omitempty"`
	Images  []string       `json:"images,omitempty"`
	Options *OllamaOptions `json:"options,omitempty"`
}

// OllamaChatChunk is one NDJSON frame of a streamed /api/chat response;
// the same shape (full content, done:true) is the non-stream response.
type OllamaChatChunk struct {
	Model           string        `json:"model"`
	CreatedAt       string        `json:"created_at"`
	Message         OllamaMessage `json:"message"`
	Done            bool          `json:"done"`
	DoneReason      string        `json:"done_reason,omitempty"`
	PromptEvalCount int           `json:"prompt_eval_count,omitempty"`
	EvalCount       int           `json:"eval_count,omitempty"`
}

// OllamaGenerateChunk is one NDJSON frame of a streamed /api/generate
// response; the same shape is the non-stream response.
type OllamaGenerateChunk struct {
	Model           string `json:"model"`
	CreatedAt       string `json:"created_at"`
	Response        string `json:"response"`
	Done            bool   `json:"done"`
	DoneReason      string `json:"done_reason,omitempty"`
	PromptEvalCount int    `json:"prompt_eval_count,omitempty"`
	EvalCount       int    `json:"eval_count,omitempty"`
}

// OllamaTagDetails describes a model in GET /api/tags.
type OllamaTagDetails struct {
	Family            string `json:"family"`
	ParameterSize     string `json:"parameter_size"`
	QuantizationLevel string `json:"quantization_level"`
}

// OllamaTag is one model entry in GET /api/tags.
type OllamaTag struct {
	Name    string           `json:"name"`
	Model   string           `json:"model"`
	Size    int64            `json:"size"`
	Details OllamaTagDetails `json:"details"`
}

// OllamaTagsResponse is the GET /api/tags response body.
type OllamaTagsResponse struct {
	Models []OllamaTag `json:"models"`
}

// dataURIPrefix is how decoded Ollama images are carried in canonical
// image_url parts.
const dataURIPrefix = "data:image/png;base64,"

// OllamaCodec translates the Ollama wire protocol (/api/chat,
// /api/generate, NDJSON streaming) to and from the IR. /api/generate
// canonicalizes to a single-user-turn chat request, so both entry
// points reach the same deterministic engine transcript.
type OllamaCodec struct{}

// Protocol implements Codec.
func (OllamaCodec) Protocol() string { return "ollama" }

// Framing implements Codec.
func (OllamaCodec) Framing() Framing { return FramingNDJSON }

// DecodeRequest implements Codec.
func (OllamaCodec) DecodeRequest(f Family, body []byte) (*Request, error) {
	k := kindOllamaChat
	switch f {
	case FamilyChat:
	case FamilyGenerate:
		k = kindOllamaGenerate
	default:
		return nil, fmt.Errorf("%w: ollama codec cannot decode %q", ErrUnsupported, f)
	}
	o, err := decodeOllama(k, body)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed JSON: %w", ErrDecode, err)
	}
	model, stream, opts, msgs := o.chat.Model, o.chat.Stream, o.chat.Options, o.chat.Messages
	if f == FamilyGenerate {
		// A generate is a chat of its system and user turns.
		var turns [2]OllamaMessage
		g := &o.generate
		model, stream, opts, msgs = g.Model, g.Stream, g.Options, turns[:0]
		if g.System != "" {
			msgs = append(msgs, OllamaMessage{Role: "system", Content: g.System})
		}
		msgs = append(msgs, OllamaMessage{Role: "user", Content: g.Prompt, Images: g.Images})
	}
	b := newChatBox(f)
	chat := &b.chat
	chat.Model, chat.Stream = model, stream == nil || *stream
	if len(msgs) > 0 {
		chat.Messages = make([]Message, len(msgs))
	}
	for i, om := range msgs {
		chat.Messages[i] = ollamaMessageToCanonical(om)
	}
	applyOllamaOptions(chat, opts)
	b.req.Model, b.req.Stream = model, chat.Stream
	if err := b.req.Validate(); err != nil {
		return nil, err
	}
	return &b.req, nil
}

// ollamaMessageToCanonical converts one Ollama message; attached images
// become multimodal content parts so the vision costing is shared with
// OpenAI clients.
func ollamaMessageToCanonical(om OllamaMessage) Message {
	msg := Message{Role: om.Role, Content: om.Content}
	if len(om.Images) == 0 {
		return msg
	}
	if om.Content != "" {
		msg.Parts = append(msg.Parts, ContentPart{Type: "text", Text: om.Content})
	}
	for _, img := range om.Images {
		msg.Parts = append(msg.Parts, ContentPart{Type: "image_url", ImageURL: &ImageURL{URL: dataURIPrefix + img}})
	}
	return msg
}

// applyOllamaOptions folds the options envelope into the canonical
// sampling fields.
func applyOllamaOptions(chat *ChatCompletionRequest, o *OllamaOptions) {
	if o == nil {
		return
	}
	if o.NumPredict > 0 {
		chat.MaxTokens = o.NumPredict
	}
	chat.Temperature = o.Temperature
	chat.Seed = o.Seed
}

// canonicalMessageToOllama inverts ollamaMessageToCanonical.
func canonicalMessageToOllama(m Message) OllamaMessage {
	om := OllamaMessage{Role: m.Role, Content: m.Content}
	for _, p := range m.Parts {
		if p.Type == "image_url" && p.ImageURL != nil {
			om.Images = append(om.Images, strings.TrimPrefix(p.ImageURL.URL, dataURIPrefix))
		}
	}
	return om
}

// ollamaOptionsFromCanonical extracts the options envelope (nil when no
// sampling parameters are set).
func ollamaOptionsFromCanonical(chat *ChatCompletionRequest) *OllamaOptions {
	if chat.MaxTokens == 0 && chat.Temperature == nil && chat.Seed == nil {
		return nil
	}
	return &OllamaOptions{NumPredict: chat.MaxTokens, Temperature: chat.Temperature, Seed: chat.Seed}
}

// EncodeRequest implements Codec: renders the canonical chat payload in
// the Ollama wire shape. Stream is always explicit because Ollama's
// default (true) differs from the canonical zero value.
func (OllamaCodec) EncodeRequest(req *Request) ([]byte, error) {
	if req.Chat == nil {
		return nil, fmt.Errorf("%w: ollama codec cannot encode %q", ErrUnsupported, req.Family)
	}
	stream := req.Stream
	switch req.Family {
	case FamilyChat:
		p := OllamaChatRequest{Model: req.Model, Stream: &stream, Options: ollamaOptionsFromCanonical(req.Chat)}
		for _, m := range req.Chat.Messages {
			p.Messages = append(p.Messages, canonicalMessageToOllama(m))
		}
		b, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("ir: encoding ollama chat request: %w", err)
		}
		return b, nil
	case FamilyGenerate:
		p := OllamaGenerateRequest{Model: req.Model, Stream: &stream, Options: ollamaOptionsFromCanonical(req.Chat)}
		for _, m := range req.Chat.Messages {
			switch m.Role {
			case "system":
				p.System = m.Content
			default:
				om := canonicalMessageToOllama(m)
				p.Prompt, p.Images = om.Content, om.Images
			}
		}
		b, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("ir: encoding ollama generate request: %w", err)
		}
		return b, nil
	}
	return nil, fmt.Errorf("%w: ollama codec cannot encode %q", ErrUnsupported, req.Family)
}

// parseCreatedAt reads Ollama's RFC 3339 created_at as unix seconds,
// tolerating sub-second precision.
func parseCreatedAt(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return 0, fmt.Errorf("%w: created_at: %w", ErrDecode, err)
	}
	return t.Unix(), nil
}

// DecodeResponse implements Codec.
func (OllamaCodec) DecodeResponse(f Family, body []byte) (*Response, error) {
	switch f {
	case FamilyChat:
		var p OllamaChatChunk
		if err := json.Unmarshal(body, &p); err != nil {
			return nil, fmt.Errorf("%w: malformed chat response: %w", ErrDecode, err)
		}
		created, err := parseCreatedAt(p.CreatedAt)
		if err != nil {
			return nil, err
		}
		return &Response{Family: f, Chat: &ChatCompletionResponse{
			Object:  "chat.completion",
			Created: created,
			Model:   p.Model,
			Choices: []Choice{{
				Message:      Message{Role: p.Message.Role, Content: p.Message.Content},
				FinishReason: doneReasonOrStop(p.DoneReason),
			}},
			Usage: Usage{
				PromptTokens:     p.PromptEvalCount,
				CompletionTokens: p.EvalCount,
				TotalTokens:      p.PromptEvalCount + p.EvalCount,
			},
		}}, nil
	case FamilyGenerate:
		var p OllamaGenerateChunk
		if err := json.Unmarshal(body, &p); err != nil {
			return nil, fmt.Errorf("%w: malformed generate response: %w", ErrDecode, err)
		}
		created, err := parseCreatedAt(p.CreatedAt)
		if err != nil {
			return nil, err
		}
		return &Response{Family: f, Chat: &ChatCompletionResponse{
			Object:  "chat.completion",
			Created: created,
			Model:   p.Model,
			Choices: []Choice{{
				Message:      Message{Role: "assistant", Content: p.Response},
				FinishReason: doneReasonOrStop(p.DoneReason),
			}},
			Usage: Usage{
				PromptTokens:     p.PromptEvalCount,
				CompletionTokens: p.EvalCount,
				TotalTokens:      p.PromptEvalCount + p.EvalCount,
			},
		}}, nil
	}
	return nil, fmt.Errorf("%w: ollama codec cannot decode %q response", ErrUnsupported, f)
}

// EncodeResponse implements Codec: the response renders as the done
// line of its family.
func (OllamaCodec) EncodeResponse(resp *Response) ([]byte, error) {
	if resp.Chat == nil || (resp.Family != FamilyChat && resp.Family != FamilyGenerate) {
		return nil, fmt.Errorf("%w: ollama codec cannot encode %q response", ErrUnsupported, resp.Family)
	}
	r := resp.Chat
	var content, reason string
	if len(r.Choices) > 0 {
		content = r.Choices[0].Message.Content
		reason = r.Choices[0].FinishReason
	}
	b := make([]byte, 0, 160+len(r.Model)+len(content))
	return appendOllamaLine(b, resp.Family, r.Model, r.Created, "", content, true, reason,
		r.Usage.PromptTokens, r.Usage.CompletionTokens), nil
}

// doneReasonOrStop defaults an absent finish reason to "stop".
func doneReasonOrStop(reason string) string {
	if reason == "" {
		return "stop"
	}
	return reason
}

// DecodeStreamEvent implements Codec: frame is one NDJSON line. A
// done:true line decodes to an event that is both Done and carries the
// folded finish chunk.
func (OllamaCodec) DecodeStreamEvent(f Family, frame []byte) (*StreamEvent, error) {
	switch f {
	case FamilyChat:
		var p OllamaChatChunk
		if err := json.Unmarshal(frame, &p); err != nil {
			return nil, fmt.Errorf("%w: malformed chat stream line: %w", ErrDecode, err)
		}
		created, err := parseCreatedAt(p.CreatedAt)
		if err != nil {
			return nil, err
		}
		return ollamaLineToEvent(p.Model, created, Message{Role: p.Message.Role, Content: p.Message.Content},
			p.Done, p.DoneReason, p.PromptEvalCount, p.EvalCount), nil
	case FamilyGenerate:
		var p OllamaGenerateChunk
		if err := json.Unmarshal(frame, &p); err != nil {
			return nil, fmt.Errorf("%w: malformed generate stream line: %w", ErrDecode, err)
		}
		created, err := parseCreatedAt(p.CreatedAt)
		if err != nil {
			return nil, err
		}
		return ollamaLineToEvent(p.Model, created, Message{Content: p.Response},
			p.Done, p.DoneReason, p.PromptEvalCount, p.EvalCount), nil
	}
	return nil, fmt.Errorf("%w: ollama codec cannot decode %q stream", ErrUnsupported, f)
}

// ollamaLineToEvent builds the canonical event for one decoded line.
func ollamaLineToEvent(model string, created int64, delta Message, done bool, reason string, promptTok, evalTok int) *StreamEvent {
	chunk := &ChatCompletionChunk{
		Object:  "chat.completion.chunk",
		Created: created,
		Model:   model,
		Choices: []DeltaChoice{{Delta: delta}},
	}
	if done {
		fr := doneReasonOrStop(reason)
		chunk.Choices[0].FinishReason = &fr
		chunk.Usage = &Usage{
			PromptTokens:     promptTok,
			CompletionTokens: evalTok,
			TotalTokens:      promptTok + evalTok,
		}
	}
	return &StreamEvent{Chunk: chunk, Done: done}
}

// EncodeStreamEvent implements Codec. A chunk carrying a finish reason
// (or an explicitly Done event with a chunk) renders as the terminal
// done:true line; the bare [DONE] sentinel renders as nothing because
// the done line already closed the stream.
func (OllamaCodec) EncodeStreamEvent(f Family, ev *StreamEvent) ([]byte, error) {
	if f != FamilyChat && f != FamilyGenerate {
		return nil, fmt.Errorf("%w: ollama codec cannot encode %q stream", ErrUnsupported, f)
	}
	if ev.Chunk == nil {
		return nil, nil // SSE [DONE]: the done line already went out
	}
	c := ev.Chunk
	var delta Message
	var finish *string
	if len(c.Choices) > 0 {
		delta = c.Choices[0].Delta
		finish = c.Choices[0].FinishReason
	}
	b := make([]byte, 0, 128+len(c.Model)+len(delta.Content))
	if !ev.Done && finish == nil {
		b = appendOllamaLine(b, f, c.Model, c.Created, delta.Role, delta.Content, false, "", 0, 0)
		return append(b, '\n'), nil
	}
	var reason string
	if finish != nil {
		reason = *finish
	}
	var usage Usage
	if c.Usage != nil {
		usage = *c.Usage
	}
	b = appendOllamaLine(b, f, c.Model, c.Created, "", delta.Content, true, reason,
		usage.PromptTokens, usage.CompletionTokens)
	return append(b, '\n'), nil
}
