package engine

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// readyEngine initializes a small Ollama engine and returns it with a test
// HTTP server.
func readyEngine(t *testing.T) (*Ollama, *httptest.Server, *testRig) {
	t.Helper()
	r := newRig(t)
	e, err := NewOllama(r.config(t, "h-test", "llama3.2:1b-fp16"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	return e, srv, r
}

func chatReq(model, text string) *ir.ChatCompletionRequest {
	seed := int64(42)
	temp := 0.0
	return &ir.ChatCompletionRequest{
		Model:       model,
		Messages:    []ir.Message{{Role: "user", Content: text}},
		Seed:        &seed,
		Temperature: &temp,
		MaxTokens:   8,
	}
}

func TestChatCompletionBlocking(t *testing.T) {
	_, srv, _ := readyEngine(t)
	c := openai.NewClient(srv.URL)
	resp, err := c.ChatCompletion(context.Background(), chatReq("llama3.2:1b-fp16", "Hello there"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Choices[0].Message.Role != "assistant" || resp.Choices[0].Message.Content == "" {
		t.Fatalf("choice = %+v", resp.Choices[0])
	}
	if resp.Usage.CompletionTokens != 8 || resp.Choices[0].FinishReason != "length" {
		t.Fatalf("usage = %+v finish = %s", resp.Usage, resp.Choices[0].FinishReason)
	}
	if resp.Usage.PromptTokens <= 0 {
		t.Fatal("prompt tokens not counted")
	}
}

func TestChatCompletionDeterministic(t *testing.T) {
	// §5.1: temperature 0 and a fixed seed must give identical outputs.
	_, srv, _ := readyEngine(t)
	c := openai.NewClient(srv.URL)
	var outs []string
	for i := 0; i < 2; i++ {
		resp, err := c.ChatCompletion(context.Background(), chatReq("llama3.2:1b-fp16", "determinism test"))
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, resp.Choices[0].Message.Content)
	}
	if outs[0] != outs[1] {
		t.Fatalf("non-deterministic output: %q vs %q", outs[0], outs[1])
	}
}

func TestChatCompletionDifferentSeeds(t *testing.T) {
	_, srv, _ := readyEngine(t)
	c := openai.NewClient(srv.URL)
	get := func(seed int64) string {
		req := chatReq("llama3.2:1b-fp16", "seed test")
		req.Seed = &seed
		req.MaxTokens = 32
		resp, err := c.ChatCompletion(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Choices[0].Message.Content
	}
	if get(1) == get(99999) {
		t.Fatal("different seeds produced identical output (suspicious)")
	}
}

func TestChatCompletionStreaming(t *testing.T) {
	_, srv, _ := readyEngine(t)
	c := openai.NewClient(srv.URL)
	var chunks []string
	var sawFinish bool
	var usage *ir.Usage
	err := c.ChatCompletionStream(context.Background(), chatReq("llama3.2:1b-fp16", "stream me"),
		func(ch *ir.ChatCompletionChunk) error {
			if len(ch.Choices) > 0 {
				if ch.Choices[0].Delta.Content != "" {
					chunks = append(chunks, ch.Choices[0].Delta.Content)
				}
				if ch.Choices[0].FinishReason != nil {
					sawFinish = true
				}
			}
			if ch.Usage != nil {
				usage = ch.Usage
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 8 {
		t.Fatalf("got %d content chunks, want 8", len(chunks))
	}
	if !sawFinish || usage == nil || usage.CompletionTokens != 8 {
		t.Fatalf("finish=%v usage=%+v", sawFinish, usage)
	}
}

func TestStreamMatchesBlocking(t *testing.T) {
	_, srv, _ := readyEngine(t)
	c := openai.NewClient(srv.URL)
	blocking, err := c.ChatCompletion(context.Background(), chatReq("llama3.2:1b-fp16", "same output"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err = c.ChatCompletionStream(context.Background(), chatReq("llama3.2:1b-fp16", "same output"),
		func(ch *ir.ChatCompletionChunk) error {
			if len(ch.Choices) > 0 {
				sb.WriteString(ch.Choices[0].Delta.Content)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != blocking.Choices[0].Message.Content {
		t.Fatalf("stream %q != blocking %q", sb.String(), blocking.Choices[0].Message.Content)
	}
}

func TestWrongModelRejected(t *testing.T) {
	_, srv, _ := readyEngine(t)
	c := openai.NewClient(srv.URL)
	_, err := c.ChatCompletion(context.Background(), chatReq("gemma3:4b-fp16", "hi"))
	apiErr, ok := err.(*ir.APIError)
	if !ok || !strings.Contains(apiErr.Message, "not served") {
		t.Fatalf("err = %v", err)
	}
}

func TestNotReadyRejected(t *testing.T) {
	r := newRig(t)
	e, _ := NewOllama(r.config(t, "h-notready", "llama3.2:1b-fp16"))
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	c := openai.NewClient(srv.URL)
	if _, err := c.ChatCompletion(context.Background(), chatReq("llama3.2:1b-fp16", "hi")); err == nil {
		t.Fatal("request to uninitialized engine accepted")
	}
	// Health must also be unavailable.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.WaitHealthy(ctx, 5*time.Millisecond); err == nil {
		t.Fatal("health check passed for uninitialized engine")
	}
}

func TestHealthWhenReady(t *testing.T) {
	_, srv, _ := readyEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := openai.NewClient(srv.URL).WaitHealthy(ctx, time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestListModels(t *testing.T) {
	_, srv, _ := readyEngine(t)
	list, err := openai.NewClient(srv.URL).ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Data) != 1 || list.Data[0].ID != "llama3.2:1b-fp16" {
		t.Fatalf("models = %+v", list)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, srv, _ := readyEngine(t)
	// Malformed JSON body.
	resp, err := srv.Client().Post(srv.URL+"/v1/chat/completions", "application/json",
		strings.NewReader("{oops"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON status = %d", resp.StatusCode)
	}
	// GET instead of POST.
	resp, err = srv.Client().Get(srv.URL + "/v1/chat/completions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

func TestFrozenEngineBlocksRequests(t *testing.T) {
	e, srv, _ := readyEngine(t)
	e.Gate().Pause()

	done := make(chan error, 1)
	go func() {
		_, err := openai.NewClient(srv.URL).ChatCompletion(context.Background(),
			chatReq("llama3.2:1b-fp16", "frozen"))
		done <- err
	}()

	select {
	case err := <-done:
		t.Fatalf("request to frozen engine completed: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	e.Gate().Resume()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("request after thaw failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request did not complete after thaw")
	}
}

func TestFreezeMidDecodeStallsStream(t *testing.T) {
	e, srv, _ := readyEngine(t)
	c := openai.NewClient(srv.URL)

	var mu sync.Mutex
	var count int
	started := make(chan struct{})
	done := make(chan error, 1)
	req := chatReq("llama3.2:1b-fp16", "long stream")
	req.MaxTokens = 64
	go func() {
		var once sync.Once
		done <- c.ChatCompletionStream(context.Background(), req, func(ch *ir.ChatCompletionChunk) error {
			mu.Lock()
			count++
			mu.Unlock()
			once.Do(func() { close(started) })
			return nil
		})
	}()

	<-started
	e.Gate().Pause()
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	frozenAt := count
	mu.Unlock()
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	stillAt := count
	mu.Unlock()
	// Allow one in-flight chunk to land after the freeze, but no more.
	if stillAt > frozenAt+1 {
		t.Fatalf("stream advanced while frozen: %d -> %d", frozenAt, stillAt)
	}
	e.Gate().Resume()
	if err := <-done; err != nil {
		t.Fatalf("stream failed after thaw: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count < 64 {
		t.Fatalf("stream delivered %d chunks, want >= 64", count)
	}
}

func TestCancelledClientAbandonsDecode(t *testing.T) {
	_, srv, _ := readyEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	req := chatReq("llama3.2:1b-fp16", "cancel me")
	req.MaxTokens = 0 // natural length: decent number of tokens
	done := make(chan error, 1)
	go func() {
		done <- openai.NewClient(srv.URL).ChatCompletionStream(ctx, req,
			func(*ir.ChatCompletionChunk) error { return nil })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Log("stream completed before cancellation (fast decode); acceptable")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stream did not return")
	}
}

// TestBusyTrackingDuringDecode: the device reads busy while a decode
// runs and idle once it has ended. The engine serves in-process on a
// Virtual clock and a registered poller samples Utilization once per
// token interval, so every sample lands at an exact virtual instant.
func TestBusyTrackingDuringDecode(t *testing.T) {
	r := newVirtualRig(t)
	cfg := r.config(t, "busy-test", "llama3.2:1b-fp16")
	e, err := NewOllama(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := simclock.Listen(r.clock, "127.0.0.1:0", e.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := openai.NewClient("http://" + srv.Addr())
	cli.Clock = r.clock
	req := chatReq("llama3.2:1b-fp16", "busy test")
	req.MaxTokens = 200
	tick := r.tb.TokenTime(e.Kind(), cfg.Model, 1)

	var done atomic.Bool
	var resp *ir.ChatCompletionResponse
	var reqErr error
	busy := 0 // samples that saw the device busy
	g := simclock.NewGroup(r.clock)
	g.Go(func() {
		resp, reqErr = cli.ChatCompletion(context.Background(), req)
		done.Store(true)
	})
	g.Go(func() {
		for !done.Load() {
			if r.device.Utilization() > 0 {
				busy++
			}
			r.clock.Sleep(tick)
		}
	})
	g.Wait()
	if reqErr != nil {
		t.Fatal(reqErr)
	}
	t.Logf("busy in %d samples; %d tokens", busy, resp.Usage.CompletionTokens)
	// Utilization must rise above zero while decoding: the decode spans
	// one interval per token, so at least half the samples see it.
	if n := resp.Usage.CompletionTokens; busy < n/2 {
		t.Fatalf("device busy in %d samples, want at least %d of the %d-token decode", busy, n/2, n)
	}
	// The clock moves only once the handler has returned.
	r.clock.Sleep(tick)
	if u := r.device.Utilization(); u != 0 {
		t.Fatalf("utilization after decode = %v", u)
	}
}
