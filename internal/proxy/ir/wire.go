package ir

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// ContentPart is one element of a multimodal message content array
// (OpenAI vision/audio chat). Type selects which payload field is set.
type ContentPart struct {
	Type       string      `json:"type"` // "text", "image_url", "input_audio"
	Text       string      `json:"text,omitempty"`
	ImageURL   *ImageURL   `json:"image_url,omitempty"`
	InputAudio *InputAudio `json:"input_audio,omitempty"`
}

// ImageURL carries one image reference (a URL or a data: URI).
type ImageURL struct {
	URL string `json:"url"`
}

// InputAudio carries one audio clip. Seconds is the simulation's
// deterministic stand-in for decoding the clip length out of Data: the
// perf model charges the audio encoder per second of input.
type InputAudio struct {
	Data    string  `json:"data,omitempty"`
	Format  string  `json:"format,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
}

// Message is one chat turn. Content holds the flattened text; Parts is
// non-nil when the turn arrived as a multimodal content array (vision
// or audio chat), in which case Content mirrors the concatenated text
// parts so prompt hashing and token counting stay protocol-agnostic.
type Message struct {
	Role    string
	Content string
	Parts   []ContentPart
}

// MarshalJSON renders content as a plain string, or as the multimodal
// part array when Parts is set (byte-preserving for decoded requests).
func (m Message) MarshalJSON() ([]byte, error) {
	w := writer{b: make([]byte, 0, 32+len(m.Role)+len(m.Content))}
	if w.message(&m); !w.bad {
		return w.b, nil
	}
	return m.marshalReflect()
}

// marshalReflect is MarshalJSON through encoding/json: the oracle of
// the fast path, and its fallback.
func (m Message) marshalReflect() ([]byte, error) {
	if len(m.Parts) == 0 {
		return json.Marshal(struct {
			Role    string `json:"role"`
			Content string `json:"content"`
		}{m.Role, m.Content})
	}
	return json.Marshal(struct {
		Role    string        `json:"role"`
		Content []ContentPart `json:"content"`
	}{m.Role, m.Parts})
}

// UnmarshalJSON accepts content as either a string or a multimodal part
// array.
func (m *Message) UnmarshalJSON(b []byte) error {
	var s scanner
	s.reset(b)
	var fast Message
	if s.message(&fast); s.done() {
		*m = fast
		return nil
	}
	return m.unmarshalReflect(b)
}

// unmarshalReflect is UnmarshalJSON through encoding/json: the oracle
// of the fast path, and its fallback.
func (m *Message) unmarshalReflect(b []byte) error {
	var wire struct {
		Role    string          `json:"role"`
		Content json.RawMessage `json:"content"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		return err
	}
	m.Role = wire.Role
	m.Content = ""
	m.Parts = nil
	if len(wire.Content) == 0 || string(wire.Content) == "null" {
		return nil
	}
	if wire.Content[0] == '"' {
		return json.Unmarshal(wire.Content, &m.Content)
	}
	if err := json.Unmarshal(wire.Content, &m.Parts); err != nil {
		return fmt.Errorf("ir: message content must be a string or part array: %w", err)
	}
	for _, p := range m.Parts {
		if p.Type == "text" {
			m.Content += p.Text
		}
	}
	return nil
}

// Images returns the number of image parts in the message.
func (m Message) Images() int {
	var n int
	for _, p := range m.Parts {
		if p.Type == "image_url" {
			n++
		}
	}
	return n
}

// AudioSeconds returns the total audio length attached to the message.
func (m Message) AudioSeconds() float64 {
	var s float64
	for _, p := range m.Parts {
		if p.Type == "input_audio" && p.InputAudio != nil {
			s += p.InputAudio.Seconds
		}
	}
	return s
}

// ChatCompletionRequest is the POST /v1/chat/completions payload.
type ChatCompletionRequest struct {
	Model     string    `json:"model"`
	Messages  []Message `json:"messages"`
	Stream    bool      `json:"stream,omitempty"`
	MaxTokens int       `json:"max_tokens,omitempty"`
	// MinTokens is the vLLM extension forcing at least this many output
	// tokens before EOS is considered.
	MinTokens   int      `json:"min_tokens,omitempty"`
	Temperature *float64 `json:"temperature,omitempty"`
	Seed        *int64   `json:"seed,omitempty"`
	User        string   `json:"user,omitempty"`
}

// Validate checks the request's structural requirements.
func (r *ChatCompletionRequest) Validate() error {
	if r.Model == "" {
		return fmt.Errorf("ir: missing required field: model")
	}
	if len(r.Messages) == 0 {
		return fmt.Errorf("ir: messages must be non-empty")
	}
	for i, m := range r.Messages {
		switch m.Role {
		case "system", "user", "assistant", "tool":
		default:
			return fmt.Errorf("ir: messages[%d] has invalid role %q", i, m.Role)
		}
		for j, p := range m.Parts {
			switch p.Type {
			case "text":
			case "image_url":
				if p.ImageURL == nil || p.ImageURL.URL == "" {
					return fmt.Errorf("ir: messages[%d] content[%d] image_url missing url", i, j)
				}
			case "input_audio":
				if p.InputAudio == nil {
					return fmt.Errorf("ir: messages[%d] content[%d] input_audio missing payload", i, j)
				}
				if p.InputAudio.Seconds < 0 {
					return fmt.Errorf("ir: messages[%d] content[%d] input_audio seconds must be non-negative", i, j)
				}
			default:
				return fmt.Errorf("ir: messages[%d] content[%d] has invalid part type %q", i, j, p.Type)
			}
		}
	}
	if r.MaxTokens < 0 {
		return fmt.Errorf("ir: max_tokens must be non-negative")
	}
	if r.MinTokens < 0 {
		return fmt.Errorf("ir: min_tokens must be non-negative")
	}
	if r.Temperature != nil && (*r.Temperature < 0 || *r.Temperature > 2) {
		return fmt.Errorf("ir: temperature must be in [0, 2]")
	}
	return nil
}

// Usage reports token accounting for a completion.
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

// Choice is one completion alternative in a blocking response.
type Choice struct {
	Index        int     `json:"index"`
	Message      Message `json:"message"`
	FinishReason string  `json:"finish_reason"`
}

// ChatCompletionResponse is the blocking response body.
type ChatCompletionResponse struct {
	ID      string   `json:"id"`
	Object  string   `json:"object"`
	Created int64    `json:"created"`
	Model   string   `json:"model"`
	Choices []Choice `json:"choices"`
	Usage   Usage    `json:"usage"`
}

// DeltaChoice is one streamed increment.
type DeltaChoice struct {
	Index        int     `json:"index"`
	Delta        Message `json:"delta"`
	FinishReason *string `json:"finish_reason"`
}

// ChatCompletionChunk is one SSE event in a streaming response.
type ChatCompletionChunk struct {
	ID      string        `json:"id"`
	Object  string        `json:"object"`
	Created int64         `json:"created"`
	Model   string        `json:"model"`
	Choices []DeltaChoice `json:"choices"`
	Usage   *Usage        `json:"usage,omitempty"`
}

// PromptField accepts the completions API's prompt as either a single
// string or an array of strings (the specification allows both).
type PromptField []string

// UnmarshalJSON implements json.Unmarshaler.
func (p *PromptField) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*p = nil
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		*p = PromptField{s}
		return nil
	}
	var ss []string
	if err := json.Unmarshal(b, &ss); err == nil {
		*p = PromptField(ss)
		return nil
	}
	return fmt.Errorf("ir: prompt must be a string or array of strings")
}

// MarshalJSON implements json.Marshaler: a single prompt round-trips as a
// plain string.
func (p PromptField) MarshalJSON() ([]byte, error) {
	if len(p) == 1 {
		return json.Marshal(p[0])
	}
	return json.Marshal([]string(p))
}

// CompletionRequest is the legacy POST /v1/completions payload.
type CompletionRequest struct {
	Model       string      `json:"model"`
	Prompt      PromptField `json:"prompt"`
	MaxTokens   int         `json:"max_tokens,omitempty"`
	Temperature *float64    `json:"temperature,omitempty"`
	Seed        *int64      `json:"seed,omitempty"`
	Stream      bool        `json:"stream,omitempty"`
	User        string      `json:"user,omitempty"`
}

// Validate checks the request's structural requirements.
func (r *CompletionRequest) Validate() error {
	if r.Model == "" {
		return fmt.Errorf("ir: missing required field: model")
	}
	if len(r.Prompt) == 0 {
		return fmt.Errorf("ir: prompt must be non-empty")
	}
	if r.MaxTokens < 0 {
		return fmt.Errorf("ir: max_tokens must be non-negative")
	}
	if r.Temperature != nil && (*r.Temperature < 0 || *r.Temperature > 2) {
		return fmt.Errorf("ir: temperature must be in [0, 2]")
	}
	return nil
}

// CompletionChoice is one completion alternative.
type CompletionChoice struct {
	Text         string  `json:"text"`
	Index        int     `json:"index"`
	FinishReason *string `json:"finish_reason"`
}

// CompletionResponse is the /v1/completions response body — the same
// shape is used for SSE stream chunks.
type CompletionResponse struct {
	ID      string             `json:"id"`
	Object  string             `json:"object"`
	Created int64              `json:"created"`
	Model   string             `json:"model"`
	Choices []CompletionChoice `json:"choices"`
	Usage   *Usage             `json:"usage,omitempty"`
}

// InputField accepts the embeddings API's input as either a single
// string or an array of strings.
type InputField []string

// UnmarshalJSON implements json.Unmarshaler.
func (p *InputField) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*p = nil
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		*p = InputField{s}
		return nil
	}
	var ss []string
	if err := json.Unmarshal(b, &ss); err == nil {
		*p = InputField(ss)
		return nil
	}
	return fmt.Errorf("ir: input must be a string or array of strings")
}

// MarshalJSON implements json.Marshaler: a single input round-trips as
// a plain string.
func (p InputField) MarshalJSON() ([]byte, error) {
	if len(p) == 1 {
		return json.Marshal(p[0])
	}
	return json.Marshal([]string(p))
}

// EmbeddingsRequest is the POST /v1/embeddings payload.
type EmbeddingsRequest struct {
	Model string     `json:"model"`
	Input InputField `json:"input"`
	User  string     `json:"user,omitempty"`
}

// Validate checks the request's structural requirements.
func (r *EmbeddingsRequest) Validate() error {
	if r.Model == "" {
		return fmt.Errorf("ir: missing required field: model")
	}
	if len(r.Input) == 0 {
		return fmt.Errorf("ir: input must be non-empty")
	}
	return nil
}

// Embedding is one output vector.
type Embedding struct {
	Object    string    `json:"object"` // "embedding"
	Index     int       `json:"index"`
	Embedding []float64 `json:"embedding"`
}

// EmbeddingsResponse is the /v1/embeddings response body.
type EmbeddingsResponse struct {
	Object string      `json:"object"` // "list"
	Data   []Embedding `json:"data"`
	Model  string      `json:"model"`
	Usage  Usage       `json:"usage"`
}

// RerankRequest is the POST /v1/rerank payload (the Cohere/Jina shape
// adopted by vLLM and TEI).
type RerankRequest struct {
	Model     string   `json:"model"`
	Query     string   `json:"query"`
	Documents []string `json:"documents"`
	TopN      int      `json:"top_n,omitempty"`
}

// Validate checks the request's structural requirements.
func (r *RerankRequest) Validate() error {
	if r.Model == "" {
		return fmt.Errorf("ir: missing required field: model")
	}
	if r.Query == "" {
		return fmt.Errorf("ir: missing required field: query")
	}
	if len(r.Documents) == 0 {
		return fmt.Errorf("ir: documents must be non-empty")
	}
	if r.TopN < 0 {
		return fmt.Errorf("ir: top_n must be non-negative")
	}
	return nil
}

// RerankResult is one scored document.
type RerankResult struct {
	Index          int     `json:"index"`
	RelevanceScore float64 `json:"relevance_score"`
}

// RerankResponse is the /v1/rerank response body.
type RerankResponse struct {
	Model   string         `json:"model"`
	Results []RerankResult `json:"results"`
	Usage   Usage          `json:"usage"`
}

// ModelInfo describes one served model in GET /v1/models.
type ModelInfo struct {
	ID      string `json:"id"`
	Object  string `json:"object"`
	Created int64  `json:"created"`
	OwnedBy string `json:"owned_by"`
	// Capabilities lists the protocol families the model serves
	// ("chat", "completion", "embeddings", "rerank", "vision", "audio").
	Capabilities []string `json:"capabilities,omitempty"`
}

// ModelList is the GET /v1/models response body.
type ModelList struct {
	Object string      `json:"object"`
	Data   []ModelInfo `json:"data"`
}

// APIError is the OpenAI error detail object.
type APIError struct {
	Message string `json:"message"`
	Type    string `json:"type"`
	Code    string `json:"code,omitempty"`
	Param   string `json:"param,omitempty"`
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("ir: %s (%s)", e.Message, e.Type)
}

// ErrorEnvelope is the wire format for API errors.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// WriteJSON writes v to w as a JSON body with the given HTTP status,
// byte for byte as json.Encoder would.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header()["Content-Type"] = JSONType
	w.WriteHeader(status)
	var r *ChatCompletionResponse
	switch v := v.(type) {
	case ChatCompletionResponse:
		r = &v
	case *ChatCompletionResponse:
		r = v
	}
	if r != nil {
		if b, err := marshalChatResponse(r); err == nil {
			w.Write(append(b, '\n'))
			return
		}
	}
	json.NewEncoder(w).Encode(v)
}

// WriteError writes an error envelope with the given HTTP status.
func WriteError(w http.ResponseWriter, status int, typ, msg string) {
	WriteJSON(w, status, ErrorEnvelope{Error: APIError{Message: msg, Type: typ}})
}
