package openai

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

func f64(v float64) *float64 { return &v }

func TestRequestValidate(t *testing.T) {
	valid := ir.ChatCompletionRequest{
		Model:    "llama3.2:1b-fp16",
		Messages: []ir.Message{{Role: "user", Content: "hello"}},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*ir.ChatCompletionRequest)
	}{
		{"missing model", func(r *ir.ChatCompletionRequest) { r.Model = "" }},
		{"no messages", func(r *ir.ChatCompletionRequest) { r.Messages = nil }},
		{"bad role", func(r *ir.ChatCompletionRequest) { r.Messages = []ir.Message{{Role: "robot", Content: "x"}} }},
		{"negative max_tokens", func(r *ir.ChatCompletionRequest) { r.MaxTokens = -1 }},
		{"temperature too high", func(r *ir.ChatCompletionRequest) { r.Temperature = f64(3) }},
		{"temperature negative", func(r *ir.ChatCompletionRequest) { r.Temperature = f64(-0.1) }},
	}
	for _, c := range cases {
		r := valid
		r.Messages = append([]ir.Message(nil), valid.Messages...)
		c.mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: invalid request accepted", c.name)
		}
	}
}

func TestValidRoles(t *testing.T) {
	for _, role := range []string{"system", "user", "assistant", "tool"} {
		r := ir.ChatCompletionRequest{Model: "m", Messages: []ir.Message{{Role: role, Content: "x"}}}
		if err := r.Validate(); err != nil {
			t.Errorf("role %s rejected: %v", role, err)
		}
	}
}

// collect reads a stream through the client's stream path.
func collect(r io.Reader) ([]*ir.ChatCompletionChunk, error) {
	var got []*ir.ChatCompletionChunk
	err := readStream(r, func(c *ir.ChatCompletionChunk) error {
		got = append(got, c)
		return nil
	})
	return got, err
}

func TestSSERoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := ir.NewSSEWriter(&buf)
	chunks := []*ir.ChatCompletionChunk{
		{ID: "c1", Object: "chat.completion.chunk", Model: "m", Choices: []ir.DeltaChoice{{Delta: ir.Message{Role: "assistant"}}}},
		{ID: "c1", Object: "chat.completion.chunk", Model: "m", Choices: []ir.DeltaChoice{{Delta: ir.Message{Content: "Hello"}}}},
		{ID: "c1", Object: "chat.completion.chunk", Model: "m", Choices: []ir.DeltaChoice{{Delta: ir.Message{Content: " world"}}}},
	}
	for _, c := range chunks {
		if err := w.WriteEvent(&ir.StreamEvent{Chunk: c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteEvent(&ir.StreamEvent{Done: true}); err != nil {
		t.Fatal(err)
	}

	got, err := collect(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(chunks) {
		t.Fatalf("round-tripped %d chunks, want %d", len(got), len(chunks))
	}
	for i := range chunks {
		if got[i].Choices[0].Delta.Content != chunks[i].Choices[0].Delta.Content {
			t.Errorf("chunk %d content = %q, want %q", i,
				got[i].Choices[0].Delta.Content, chunks[i].Choices[0].Delta.Content)
		}
	}
}

func TestSSEReaderSkipsCommentsAndBlank(t *testing.T) {
	input := ": keep-alive\n\n\ndata: {\"id\":\"x\"}\n\ndata: [DONE]\n\ndata: {\"id\":\"after\"}\n\n"
	got, err := collect(strings.NewReader(input))
	if err != nil || len(got) != 1 || got[0].ID != "x" {
		t.Fatalf("stream = %+v, %v; want the one chunk before [DONE]", got, err)
	}
}

func TestSSEReaderMalformed(t *testing.T) {
	if _, err := collect(strings.NewReader("data: {not json}\n\n")); err == nil {
		t.Fatal("malformed chunk accepted")
	}
}

func TestSSEReaderEOFWithoutDone(t *testing.T) {
	got, err := collect(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %+v, %v", got, err)
	}
}

// Property: any chunk survives a write/read round trip.
func TestSSEChunkRoundTripProperty(t *testing.T) {
	f := func(id, content string, idx uint8) bool {
		// SSE is line-oriented; JSON escaping must keep newlines safe.
		in := &ir.ChatCompletionChunk{
			ID:      id,
			Object:  "chat.completion.chunk",
			Choices: []ir.DeltaChoice{{Index: int(idx), Delta: ir.Message{Content: content}}},
		}
		var buf bytes.Buffer
		if err := ir.NewSSEWriter(&buf).WriteEvent(&ir.StreamEvent{Chunk: in, Done: true}); err != nil {
			return false
		}
		got, err := collect(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		out := got[0]
		return out.ID == in.ID && out.Choices[0].Delta.Content == content && out.Choices[0].Index == int(idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAPIErrorError(t *testing.T) {
	e := &ir.APIError{Message: "model not found", Type: "invalid_request_error"}
	if !strings.Contains(e.Error(), "model not found") {
		t.Fatalf("Error() = %q", e.Error())
	}
}

func TestWriteErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	ir.WriteError(rec, http.StatusNotFound, "invalid_request_error", "no such model")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	var env ir.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Message != "no such model" || env.Error.Type != "invalid_request_error" {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestClientChatCompletion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/chat/completions" {
			t.Errorf("path = %s", r.URL.Path)
		}
		var req ir.ChatCompletionRequest
		json.NewDecoder(r.Body).Decode(&req)
		ir.WriteJSON(w, http.StatusOK, ir.ChatCompletionResponse{
			ID:      "cmpl-1",
			Object:  "chat.completion",
			Model:   req.Model,
			Choices: []ir.Choice{{Message: ir.Message{Role: "assistant", Content: "hi"}, FinishReason: "stop"}},
			Usage:   ir.Usage{PromptTokens: 3, CompletionTokens: 1, TotalTokens: 4},
		})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	resp, err := c.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:    "llama3.2:1b-fp16",
		Messages: []ir.Message{{Role: "user", Content: "hello"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Choices[0].Message.Content != "hi" || resp.Usage.TotalTokens != 4 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestClientStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := ir.NewSSEWriter(w)
		for _, tok := range []string{"a", "b", "c"} {
			sw.WriteEvent(&ir.StreamEvent{Chunk: &ir.ChatCompletionChunk{ID: "s1", Choices: []ir.DeltaChoice{{Delta: ir.Message{Content: tok}}}}})
		}
		sw.WriteEvent(&ir.StreamEvent{Done: true})
	}))
	defer srv.Close()

	var got []string
	err := NewClient(srv.URL).ChatCompletionStream(context.Background(),
		&ir.ChatCompletionRequest{Model: "m", Messages: []ir.Message{{Role: "user", Content: "x"}}},
		func(c *ir.ChatCompletionChunk) error {
			got = append(got, c.Choices[0].Delta.Content)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "") != "abc" {
		t.Fatalf("stream = %v", got)
	}
}

func TestClientErrorEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ir.WriteError(w, http.StatusNotFound, "invalid_request_error", "unknown model")
	}))
	defer srv.Close()

	_, err := NewClient(srv.URL).ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model: "x", Messages: []ir.Message{{Role: "user", Content: "y"}},
	})
	apiErr, ok := err.(*ir.APIError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if apiErr.Message != "unknown model" {
		t.Fatalf("message = %q", apiErr.Message)
	}
}

func TestClientListModels(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/models" {
			t.Errorf("path = %s", r.URL.Path)
		}
		ir.WriteJSON(w, http.StatusOK, ir.ModelList{Object: "list", Data: []ir.ModelInfo{{ID: "m1", Object: "model"}}})
	}))
	defer srv.Close()
	list, err := NewClient(srv.URL).ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Data) != 1 || list.Data[0].ID != "m1" {
		t.Fatalf("list = %+v", list)
	}
}

// TestListModelsInsideGate: ListModels runs on the clock's in-process
// transport, so a registered caller sheds its run token while the
// server works. A server that sleeps on the virtual clock must
// therefore see that time pass; a caller keeping its token would hold
// the clock still forever.
func TestListModelsInsideGate(t *testing.T) {
	epoch := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	v := simclock.NewVirtual(epoch)
	srv, err := simclock.Listen(v, "127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v.Sleep(time.Second)
		ir.WriteJSON(w, http.StatusOK, ir.ModelList{Object: "list", Data: []ir.ModelInfo{{ID: "m1", Object: "model"}}})
	}))
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient("http://" + srv.Addr())
	cli.Clock = v

	done := make(chan error, 1)
	v.Gate().Go(func() {
		_, err := cli.ListModels(context.Background())
		done <- err
	})
	select {
	case err := <-done:
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListModels kept its run token: the server's virtual sleep never ended")
	}
	if d := v.Since(epoch); d != time.Second {
		t.Fatalf("virtual time advanced %v, want 1s", d)
	}
}

func TestWaitHealthy(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := NewClient(srv.URL).WaitHealthy(ctx, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if calls < 3 {
		t.Fatalf("health called %d times", calls)
	}
}

func TestWaitHealthyTimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := NewClient(srv.URL).WaitHealthy(ctx, 5*time.Millisecond); err == nil {
		t.Fatal("expected timeout error")
	}
}
