package engine

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// readyEngine initializes a small Ollama engine and serves it on the
// rig's Virtual clock, returning the server's base URL.
func readyEngine(t *testing.T) (*Ollama, string, *testRig) {
	t.Helper()
	r := newRig(t)
	e, err := NewOllama(r.config(t, "h-test", "llama3.2:1b-fp16"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e, r.serve(t, e.Handler()), r
}

// serve serves h on the rig's clock until the test ends and returns
// its base URL. Clients on the clock reach it in-process.
func (r *testRig) serve(t *testing.T, h http.Handler) string {
	t.Helper()
	srv, err := simclock.Listen(r.clock, "127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + srv.Addr()
}

// client returns an OpenAI client for url on the rig's clock.
func (r *testRig) client(url string) *openai.Client {
	c := openai.NewClient(url)
	c.Clock = r.clock
	return c
}

// httpClient returns a plain HTTP client on the rig's clock.
func (r *testRig) httpClient() *http.Client {
	return &http.Client{Transport: simclock.Transport(r.clock)}
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
	_, url, r := readyEngine(t)
	c := r.client(url)
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
	_, url, r := readyEngine(t)
	c := r.client(url)
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
	_, url, r := readyEngine(t)
	c := r.client(url)
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
	_, url, r := readyEngine(t)
	c := r.client(url)
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
	_, url, r := readyEngine(t)
	c := r.client(url)
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
	_, url, r := readyEngine(t)
	c := r.client(url)
	_, err := c.ChatCompletion(context.Background(), chatReq("gemma3:4b-fp16", "hi"))
	apiErr, ok := err.(*ir.APIError)
	if !ok || !strings.Contains(apiErr.Message, "not served") {
		t.Fatalf("err = %v", err)
	}
}

func TestNotReadyRejected(t *testing.T) {
	r := newRig(t)
	e, _ := NewOllama(r.config(t, "h-notready", "llama3.2:1b-fp16"))
	c := r.client(r.serve(t, e.Handler()))
	if _, err := c.ChatCompletion(context.Background(), chatReq("llama3.2:1b-fp16", "hi")); err == nil {
		t.Fatal("request to uninitialized engine accepted")
	}
	// Health must also be unavailable, for a whole simulated second of
	// polling.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var err error
	g := simclock.NewGroup(r.clock)
	g.Go(func() { err = c.WaitHealthy(ctx, 5*time.Millisecond) })
	g.Go(func() {
		r.clock.Sleep(time.Second)
		cancel()
	})
	g.Wait()
	if err == nil {
		t.Fatal("health check passed for uninitialized engine")
	}
}

func TestHealthWhenReady(t *testing.T) {
	_, url, r := readyEngine(t)
	if !r.client(url).Healthy(context.Background()) {
		t.Fatal("ready engine reports unhealthy")
	}
}

func TestListModels(t *testing.T) {
	_, url, r := readyEngine(t)
	list, err := r.client(url).ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Data) != 1 || list.Data[0].ID != "llama3.2:1b-fp16" {
		t.Fatalf("models = %+v", list)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, url, r := readyEngine(t)
	hc := r.httpClient()
	// Malformed JSON body.
	resp, err := hc.Post(url+"/v1/chat/completions", "application/json",
		strings.NewReader("{oops"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON status = %d", resp.StatusCode)
	}
	// GET instead of POST.
	resp, err = hc.Get(url + "/v1/chat/completions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

// TestFrozenEngineBlocksRequests: a request to a frozen engine makes no
// progress however long the freeze lasts, and completes after the thaw.
func TestFrozenEngineBlocksRequests(t *testing.T) {
	e, url, r := readyEngine(t)
	e.Gate().Pause()

	var done atomic.Bool
	var reqErr error
	g := simclock.NewGroup(r.clock)
	g.Go(func() {
		_, reqErr = r.client(url).ChatCompletion(context.Background(), chatReq("llama3.2:1b-fp16", "frozen"))
		done.Store(true)
	})
	g.Go(func() {
		r.clock.Sleep(time.Minute)
		if done.Load() {
			t.Errorf("request to frozen engine completed: %v", reqErr)
		}
		e.Gate().Resume()
	})
	g.Wait()
	if reqErr != nil {
		t.Fatalf("request after thaw failed: %v", reqErr)
	}
}

// TestFreezeMidDecodeStallsStream: a freeze landing mid-stream stalls
// it after at most the token in flight, for as long as the freeze
// lasts, and the stream completes after the thaw.
func TestFreezeMidDecodeStallsStream(t *testing.T) {
	const freezeAfter = 10
	e, url, r := readyEngine(t)
	c := r.client(url)
	req := chatReq("llama3.2:1b-fp16", "long stream")
	req.MaxTokens = 64

	var count atomic.Int32
	var frozenAt int32
	var streamErr error
	frozen := make(chan struct{})
	g := simclock.NewGroup(r.clock)
	g.Go(func() {
		streamErr = c.ChatCompletionStream(context.Background(), req, func(*ir.ChatCompletionChunk) error {
			if count.Add(1) == freezeAfter {
				e.Gate().Pause()
				close(frozen)
			}
			return nil
		})
	})
	g.Go(func() {
		r.clock.Sleep(time.Minute)
		if simclock.Closed(frozen) {
			frozenAt = count.Load()
		}
		e.Gate().Resume()
	})
	g.Wait()
	// One chunk may land after the freeze: the token then in flight.
	if frozenAt < freezeAfter || frozenAt > freezeAfter+1 {
		t.Fatalf("a minute into a freeze after chunk %d, the stream had %d chunks", freezeAfter, frozenAt)
	}
	if streamErr != nil {
		t.Fatalf("stream failed after thaw: %v", streamErr)
	}
	if n := count.Load(); n < 64 {
		t.Fatalf("stream delivered %d chunks, want >= 64", n)
	}
}

// TestCancelledClientAbandonsDecode: a client that cancels mid-stream
// gets its error back, and the engine stops decoding for it.
func TestCancelledClientAbandonsDecode(t *testing.T) {
	e, url, r := readyEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := chatReq("llama3.2:1b-fp16", "cancel me")
	req.MaxTokens = 0 // natural length: decent number of tokens
	chunks := 0
	err := r.client(url).ChatCompletionStream(ctx, req, func(*ir.ChatCompletionChunk) error {
		if chunks++; chunks == 3 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled stream completed")
	}
	// The handler returns at the end of the token in flight.
	r.clock.Sleep(time.Second)
	if n := e.active.Load(); n != 0 {
		t.Fatalf("%d requests still in flight after the client cancelled", n)
	}
}

// TestBusyTrackingDuringDecode: the device reads busy while a decode
// runs and idle once it has ended. The engine serves in-process on a
// Virtual clock and a registered poller samples Utilization once per
// token interval, so every sample lands at an exact virtual instant.
func TestBusyTrackingDuringDecode(t *testing.T) {
	r := newRig(t)
	cfg := r.config(t, "busy-test", "llama3.2:1b-fp16")
	e, err := NewOllama(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	cli := r.client(r.serve(t, e.Handler()))
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
