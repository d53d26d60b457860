package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// testServer builds and starts a server from the given model configs.
func testServer(t *testing.T, scale float64, models ...config.Model) *Server {
	t.Helper()
	cfg := config.Default()
	cfg.Models = models
	s, err := New(cfg, Options{
		Clock: simclock.NewScaled(testEpoch, scale),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func ollamaModel(name string) config.Model {
	return config.Model{Name: name, Engine: "ollama"}
}

func vllmModel(name string) config.Model {
	return config.Model{Name: name, Engine: "vllm"}
}

func doChat(t *testing.T, url, model string, maxTokens int) *ir.ChatCompletionResponse {
	t.Helper()
	return chatVia(t, openai.NewClient(url), model, maxTokens)
}

// serverChat is doChat with the client on the server's clock, so a test
// goroutine registered with a Virtual clock gives up its run token for
// the round trip instead of freezing simulated time.
func serverChat(t *testing.T, s *Server, model string, maxTokens int) *ir.ChatCompletionResponse {
	t.Helper()
	cli := openai.NewClient(s.URL())
	cli.Clock = s.Clock()
	return chatVia(t, cli, model, maxTokens)
}

func chatVia(t *testing.T, cli *openai.Client, model string, maxTokens int) *ir.ChatCompletionResponse {
	t.Helper()
	seed := int64(7)
	temp := 0.0
	resp, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:       model,
		Messages:    []ir.Message{{Role: "user", Content: "hello from the test"}},
		Seed:        &seed,
		Temperature: &temp,
		MaxTokens:   maxTokens,
	})
	if err != nil {
		t.Fatalf("chat against %s: %v", model, err)
	}
	return resp
}

func TestServerInitSnapshotsAndPauses(t *testing.T) {
	// §3.2: after initialization every backend is snapshotted and paused,
	// leaving the GPU empty.
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"), ollamaModel("deepseek-r1:1.5b-q4"))
	for _, b := range s.Backends() {
		if b.State() != BackendSwappedOut {
			t.Errorf("backend %s state = %v, want swapped-out", b.Name(), b.State())
		}
		if b.RequiredBytes() <= 0 {
			t.Errorf("backend %s has no recorded footprint", b.Name())
		}
	}
	dev, _ := s.Topology().Device(0)
	if dev.Used() != 0 {
		t.Fatalf("GPU not empty after init snapshots: %d bytes", dev.Used())
	}
	// Snapshots live in host memory.
	if s.driver.HostUsed() == 0 {
		t.Fatal("no host snapshot memory in use")
	}
}

func TestServerKeepWarm(t *testing.T) {
	m := ollamaModel("llama3.2:1b-fp16")
	m.KeepWarm = true
	s := testServer(t, 5000, m)
	b, _ := s.Backend("llama3.2:1b-fp16")
	if b.State() != BackendRunning {
		t.Fatalf("keep-warm backend state = %v", b.State())
	}
}

func TestRequestTriggersSwapIn(t *testing.T) {
	// §3.3: a request for a swapped-out model triggers the full swap-in
	// path and is then served.
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"))
	b, _ := s.Backend("llama3.2:1b-fp16")
	if b.State() != BackendSwappedOut {
		t.Fatalf("precondition: state = %v", b.State())
	}
	resp := doChat(t, s.URL(), "llama3.2:1b-fp16", 4)
	if resp.Usage.CompletionTokens != 4 {
		t.Fatalf("usage = %+v", resp.Usage)
	}
	if b.State() != BackendRunning {
		t.Fatalf("state after request = %v", b.State())
	}
	in, _ := b.SwapCounts()
	if in != 1 {
		t.Fatalf("swap-ins = %d, want 1", in)
	}
	// A second request hits the running backend with no further swap.
	doChat(t, s.URL(), "llama3.2:1b-fp16", 4)
	if in2, _ := b.SwapCounts(); in2 != 1 {
		t.Fatalf("second request re-swapped: %d", in2)
	}
}

func TestSwapInLatencyFasterThanColdStart(t *testing.T) {
	// The headline claim end-to-end: serving a swapped-out model costs a
	// swap-in (~1s for a 1B Ollama model) rather than a cold start.
	// The Virtual clock keeps wall-clock overhead (HTTP hops) out of the
	// simulated measurement.
	cfg := config.Default()
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	s := startServer(t, cfg, Options{Clock: virtualTestClock(t)})
	clock := s.Clock()
	t0 := clock.Now()
	serverChat(t, s, "llama3.2:1b-fp16", 1)
	elapsed := clock.Since(t0)
	// Swap-in ≈0.76s + decode; cold start would be ≈2s (Ollama) or ≈87s
	// (vLLM). Generous bound: must be well under the Ollama cold start.
	if elapsed > 1900*time.Millisecond {
		t.Fatalf("first-request latency %v, want < 1.9s (cold start territory)", elapsed)
	}
}

func TestPreemptionUnderMemoryPressure(t *testing.T) {
	// Two vLLM backends each demand 90% of the GPU: serving model B must
	// preempt model A, and vice versa.
	s := testServer(t, 20000, vllmModel("llama3.2:1b-fp16"), vllmModel("llama3.2:3b-fp16"))
	a, _ := s.Backend("llama3.2:1b-fp16")
	bb, _ := s.Backend("llama3.2:3b-fp16")

	doChat(t, s.URL(), "llama3.2:1b-fp16", 2)
	if a.State() != BackendRunning {
		t.Fatalf("A state = %v", a.State())
	}
	doChat(t, s.URL(), "llama3.2:3b-fp16", 2)
	if bb.State() != BackendRunning {
		t.Fatalf("B state = %v", bb.State())
	}
	// B's swap-in must have evicted A.
	if a.State() != BackendSwappedOut {
		t.Fatalf("A state after B served = %v, want swapped-out", a.State())
	}
	_, aOuts := a.SwapCounts()
	if aOuts < 2 { // once at init, once preempted
		t.Fatalf("A swap-outs = %d, want >= 2", aOuts)
	}
	// And A can come back.
	doChat(t, s.URL(), "llama3.2:1b-fp16", 2)
	if a.State() != BackendRunning || bb.State() != BackendSwappedOut {
		t.Fatalf("states after A re-served: A=%v B=%v", a.State(), bb.State())
	}
}

func TestPaperScenario34(t *testing.T) {
	// §3.4: Gemma 7B and DeepSeek Coder 6.7B fit together on the 80 GB
	// GPU; a subsequent LLaMA 3.3 70B FP8 request must swap both out.
	s := testServer(t, 20000,
		ollamaModel("gemma:7b-fp16"),
		ollamaModel("deepseek-coder:6.7b-fp16"),
		ollamaModel("llama3.3:70b-fp8"),
	)
	gemma, _ := s.Backend("gemma:7b-fp16")
	coder, _ := s.Backend("deepseek-coder:6.7b-fp16")
	big, _ := s.Backend("llama3.3:70b-fp8")

	// Both small models swap in concurrently.
	var wg sync.WaitGroup
	for _, m := range []string{"gemma:7b-fp16", "deepseek-coder:6.7b-fp16"} {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			doChat(t, s.URL(), m, 2)
		}(m)
	}
	wg.Wait()
	if gemma.State() != BackendRunning || coder.State() != BackendRunning {
		t.Fatalf("small models not co-resident: gemma=%v coder=%v", gemma.State(), coder.State())
	}

	// The 70B model displaces both.
	doChat(t, s.URL(), "llama3.3:70b-fp8", 2)
	if big.State() != BackendRunning {
		t.Fatalf("70B state = %v", big.State())
	}
	if gemma.State() != BackendSwappedOut || coder.State() != BackendSwappedOut {
		t.Fatalf("small models not preempted: gemma=%v coder=%v", gemma.State(), coder.State())
	}
}

func TestUnknownModel404(t *testing.T) {
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"))
	seed := int64(1)
	_, err := openai.NewClient(s.URL()).ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:    "gpt-42",
		Messages: []ir.Message{{Role: "user", Content: "x"}},
		Seed:     &seed,
	})
	apiErr, ok := err.(*ir.APIError)
	if !ok || !strings.Contains(apiErr.Message, "not configured") {
		t.Fatalf("err = %v", err)
	}
}

func TestRouterValidation(t *testing.T) {
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"))
	// Malformed JSON.
	resp, err := http.Post(s.URL()+"/v1/chat/completions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON status = %d", resp.StatusCode)
	}
	// Missing messages.
	resp, err = http.Post(s.URL()+"/v1/chat/completions", "application/json",
		strings.NewReader(`{"model":"llama3.2:1b-fp16"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("empty messages status = %d", resp.StatusCode)
	}
	// GET on completions.
	resp, err = http.Get(s.URL() + "/v1/chat/completions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

func TestListModelsEndpoint(t *testing.T) {
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"), ollamaModel("deepseek-r1:1.5b-q4"))
	list, err := openai.NewClient(s.URL()).ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Data) != 2 {
		t.Fatalf("models = %+v", list.Data)
	}
	if list.Data[0].ID != "deepseek-r1:1.5b-q4" || list.Data[1].ID != "llama3.2:1b-fp16" {
		t.Fatalf("model ids = %v, %v", list.Data[0].ID, list.Data[1].ID)
	}
}

func TestStreamingThroughRouter(t *testing.T) {
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"))
	seed := int64(3)
	var tokens []string
	err := openai.NewClient(s.URL()).ChatCompletionStream(context.Background(),
		&ir.ChatCompletionRequest{
			Model:     "llama3.2:1b-fp16",
			Messages:  []ir.Message{{Role: "user", Content: "stream through proxy"}},
			Seed:      &seed,
			MaxTokens: 6,
		},
		func(c *ir.ChatCompletionChunk) error {
			if len(c.Choices) > 0 && c.Choices[0].Delta.Content != "" {
				tokens = append(tokens, c.Choices[0].Delta.Content)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 6 {
		t.Fatalf("streamed %d tokens, want 6", len(tokens))
	}
}

func TestAdminStatusAndSwap(t *testing.T) {
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"))
	b, _ := s.Backend("llama3.2:1b-fp16")

	// Explicit swap-in via the admin API.
	resp, err := http.Post(s.URL()+"/admin/swap-in?model=llama3.2:1b-fp16", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("swap-in status = %d", resp.StatusCode)
	}
	if b.State() != BackendRunning {
		t.Fatalf("state = %v", b.State())
	}

	// Status reflects it.
	resp, err = http.Get(s.URL() + "/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Backends []BackendStatus `json:"backends"`
		GPUs     []struct {
			UsedGiB float64 `json:"used_gib"`
		} `json:"gpus"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status.Backends) != 1 || status.Backends[0].State != "running" {
		t.Fatalf("status = %+v", status)
	}
	if len(status.GPUs) != 1 || status.GPUs[0].UsedGiB <= 0 {
		t.Fatalf("gpu status = %+v", status.GPUs)
	}

	// Explicit swap-out.
	resp, err = http.Post(s.URL()+"/admin/swap-out?model=llama3.2:1b-fp16", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("swap-out status = %d", resp.StatusCode)
	}
	if b.State() != BackendSwappedOut {
		t.Fatalf("state = %v", b.State())
	}

	// Unknown model.
	resp, _ = http.Post(s.URL()+"/admin/swap-in?model=nope", "", nil)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown model swap status = %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"))
	doChat(t, s.URL(), "llama3.2:1b-fp16", 2)
	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	out := sb.String()
	for _, want := range []string{"requests_total", "swap_in_latency", "swap_outs", "# TYPE"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// The CSV exposition remains available at /metrics.csv.
	csvResp, err := http.Get(s.URL() + "/metrics.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer csvResp.Body.Close()
	head := make([]byte, 64)
	n, _ := csvResp.Body.Read(head)
	if !strings.HasPrefix(string(head[:n]), "kind,name,field,value") {
		t.Errorf("/metrics.csv header = %q", head[:n])
	}
}

func TestAuthToken(t *testing.T) {
	cfg := config.Default()
	cfg.Global.AuthToken = "secret-token"
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	s, err := New(cfg, Options{Clock: simclock.NewScaled(testEpoch, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	// Without the token: 401.
	resp, err := http.Get(s.URL() + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("unauthenticated status = %d", resp.StatusCode)
	}
	// With it: 200.
	req, _ := http.NewRequest(http.MethodGet, s.URL()+"/v1/models", nil)
	req.Header.Set("Authorization", "Bearer secret-token")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("authenticated status = %d", resp.StatusCode)
	}
}

func TestQueueFull429(t *testing.T) {
	cfg := config.Default()
	cfg.Global.QueueCapacity = 1
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	clock := virtualTestClock(t)
	s := startServer(t, cfg, Options{Clock: clock})

	// Flood with concurrent requests; with queue depth 1 and a multi-second
	// swap-in, some must be rejected with 429. On the Virtual clock the
	// swap-in cannot finish while the flood is still crossing the wire, so
	// the outcome does not hang on host scheduling.
	gate := clock.Gate()
	var wg sync.WaitGroup
	var got429 bool
	var mu sync.Mutex
	for i := 0; i < 16; i++ {
		wg.Add(1)
		gate.Go(func() {
			defer wg.Done()
			seed := int64(1)
			body, _ := json.Marshal(ir.ChatCompletionRequest{
				Model:     "llama3.2:1b-fp16",
				Messages:  []ir.Message{{Role: "user", Content: "x"}},
				Seed:      &seed,
				MaxTokens: 2,
			})
			var resp *http.Response
			var err error
			gate.BlockIO(func() {
				resp, err = http.Post(s.URL()+"/v1/chat/completions", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			})
			if err != nil {
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				got429 = true
				mu.Unlock()
			}
		})
	}
	gate.Block(wg.Wait)
	if !got429 {
		t.Fatal("no request was rejected with 429 despite queue depth 1")
	}
}

func TestServerDoubleStart(t *testing.T) {
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"))
	if err := s.Start(context.Background()); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestServerBadConfig(t *testing.T) {
	cfg := config.Default()
	cfg.Models = []config.Model{{Name: "unknown:model", Engine: "vllm"}}
	if _, err := New(cfg, Options{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	cfg = config.Default()
	if _, err := New(cfg, Options{}); err == nil {
		t.Fatal("empty model list accepted")
	}
}

// TestNewRequiresClock: a valid config without a clock is rejected, not
// silently given a wall-driven one.
func TestNewRequiresClock(t *testing.T) {
	cfg := config.Default()
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	if _, err := New(cfg, Options{}); !errors.Is(err, ErrNoClock) {
		t.Fatalf("New without a clock: err = %v, want ErrNoClock", err)
	}
	s, err := New(cfg, Options{Clock: simclock.NewVirtual(testEpoch)})
	if err != nil {
		t.Fatalf("New with a clock: %v", err)
	}
	s.Shutdown()
}

func TestVLLMSleepModeSwapPath(t *testing.T) {
	// With sleep mode enabled, the vLLM swap-out shrinks the snapshot to
	// the residual footprint instead of the full 72 GiB pool.
	cfg := config.Default()
	cfg.Global.UseSleepMode = true
	cfg.Models = []config.Model{vllmModel("llama3.2:1b-fp16")}
	s, err := New(cfg, Options{Clock: simclock.NewScaled(testEpoch, 20000)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	b, _ := s.Backend("llama3.2:1b-fp16")
	if b.State() != BackendSwappedOut {
		t.Fatalf("state = %v", b.State())
	}
	// The snapshot is tiny: residual CUDA context only.
	img, err := s.driver.ImageBytes(b.Container().ID())
	if err != nil {
		t.Fatal(err)
	}
	if img > 2*gib {
		t.Fatalf("sleep-mode snapshot = %d bytes, want < 2 GiB", img)
	}
	// But the recorded requirement covers the full wake footprint.
	if b.RequiredBytes() < 70*gib {
		t.Fatalf("required bytes = %d, want ~72 GiB", b.RequiredBytes())
	}
	// And the backend serves correctly after swap-in.
	resp := doChat(t, s.URL(), "llama3.2:1b-fp16", 2)
	if resp.Usage.CompletionTokens != 2 {
		t.Fatalf("usage = %+v", resp.Usage)
	}
	if got := b.Container().Engine().GPUBytes(); got < 70*gib {
		t.Fatalf("engine footprint after wake = %d", got)
	}
}

func TestConcurrentRequestsSameModel(t *testing.T) {
	s := testServer(t, 5000, ollamaModel("llama3.2:1b-fp16"))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := int64(1)
			_, err := openai.NewClient(s.URL()).ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
				Model:     "llama3.2:1b-fp16",
				Messages:  []ir.Message{{Role: "user", Content: "concurrent"}},
				Seed:      &seed,
				MaxTokens: 3,
			})
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent request: %v", err)
	}
	// Exactly one swap-in should have served all eight.
	b, _ := s.Backend("llama3.2:1b-fp16")
	if in, _ := b.SwapCounts(); in != 1 {
		t.Fatalf("swap-ins = %d, want 1", in)
	}
}
