package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// TestResponseTimeoutEndToEnd: a tiny response timeout expires while the
// backend is still swapping in, yielding a 504.
func TestResponseTimeoutEndToEnd(t *testing.T) {
	cfg := config.Default()
	// 0.5 simulated seconds: far below the ~4.7s swap-in of the 14B model.
	cfg.Global.ResponseTimeoutSec = 0.5
	cfg.Models = []config.Model{ollamaModel("deepseek-r1:14b-fp16")}
	s := startServer(t, cfg, Options{})

	seed := int64(1)
	_, err := serverClient(s).ChatCompletion(context.Background(),
		&ir.ChatCompletionRequest{
			Model:     "deepseek-r1:14b-fp16",
			Messages:  []ir.Message{{Role: "user", Content: "x"}},
			Seed:      &seed,
			MaxTokens: 2,
		})
	apiErr, ok := err.(*ir.APIError)
	if !ok || apiErr.Type != "timeout" {
		t.Fatalf("err = %v, want timeout", err)
	}
	if s.Registry().Counter("requests_total").Value() != 1 {
		t.Fatal("request not counted")
	}
}

// TestResponseTimeoutOnVirtualClock: the response timeout is simulated
// time on every clock. On the Virtual clock a request whose backend
// cannot answer within it (the 14B model's swap-in takes about 4.7 s)
// gets the 504 at exactly +1 s of virtual time.
func TestResponseTimeoutOnVirtualClock(t *testing.T) {
	cfg := config.Default()
	cfg.Global.ResponseTimeoutSec = 1
	cfg.Models = []config.Model{ollamaModel("deepseek-r1:14b-fp16")}
	clock := virtualTestClock(t)
	s := startServer(t, cfg, Options{Clock: clock})

	start := clock.Now()
	seed := int64(1)
	cli := openai.Client{BaseURL: s.URL(), Clock: clock}
	_, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:     "deepseek-r1:14b-fp16",
		Messages:  []ir.Message{{Role: "user", Content: "x"}},
		Seed:      &seed,
		MaxTokens: 2,
	})
	if apiErr, ok := err.(*ir.APIError); !ok || apiErr.Type != "timeout" {
		t.Fatalf("err = %v, want the 504 timeout", err)
	}
	if d := clock.Since(start); d != time.Second {
		t.Fatalf("the timeout answered at +%v of virtual time, want +1s", d)
	}
}

// TestClientCancelBeforeDequeue: a request cancelled while queued is
// discarded by the worker's liveness check without touching the engine.
func TestClientCancelBeforeDequeue(t *testing.T) {
	s := testServer(t, ollamaModel("deepseek-r1:14b-fp16"))
	// First request occupies the worker with a multi-second swap-in; a
	// second, immediately-cancelled request sits in the queue behind it.
	first := make(chan error, 1)
	warm := simclock.NewGroup(s.Clock())
	warm.Go(func() {
		seed := int64(1)
		_, err := serverClient(s).ChatCompletion(context.Background(),
			&ir.ChatCompletionRequest{
				Model:     "deepseek-r1:14b-fp16",
				Messages:  []ir.Message{{Role: "user", Content: "warm"}},
				Seed:      &seed,
				MaxTokens: 1,
			})
		first <- err
	})
	s.Clock().Sleep(time.Second) // the first request reaches the worker

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the worker can dequeue it
	seed := int64(2)
	_, err := serverClient(s).ChatCompletion(ctx, &ir.ChatCompletionRequest{
		Model:     "deepseek-r1:14b-fp16",
		Messages:  []ir.Message{{Role: "user", Content: "x"}},
		Seed:      &seed,
		MaxTokens: 2,
	})
	if err == nil {
		t.Fatal("cancelled request succeeded")
	}
	warm.Wait()
	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
}

// TestAdminSwapOutBusyConflict: an explicit swap-out of a backend with an
// in-flight stream conflicts cleanly (409) once drain gives up on the
// caller's context... the drain waits, so use a short request context via
// the admin HTTP call racing a long stream.
func TestMetricsAfterTraffic(t *testing.T) {
	s := testServer(t, ollamaModel("llama3.2:1b-fp16"))
	serverChat(t, s, "llama3.2:1b-fp16", 2)
	serverChat(t, s, "llama3.2:1b-fp16", 2)
	resp, err := httpClient(s).Get(s.URL() + "/metrics.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := ioCopy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"counter,requests_total,value,2",
		"histogram,swap_in_latency,count,1",
		"histogram,request_latency,count,2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBackendStatusFields sanity-checks the admin snapshot after churn.
func TestBackendStatusFields(t *testing.T) {
	s := testServer(t, ollamaModel("llama3.2:1b-fp16"))
	serverChat(t, s, "llama3.2:1b-fp16", 2)
	b, _ := s.Backend("llama3.2:1b-fp16")
	st := b.Status()
	if st.Name != "llama3.2:1b-fp16" || st.Engine != "ollama" {
		t.Fatalf("identity: %+v", st)
	}
	if st.SwapIns != 1 || st.SwapOuts != 1 {
		t.Fatalf("swap counts: %+v", st)
	}
	if st.ContainerID == "" || st.ContainerPort == 0 {
		t.Fatalf("container fields: %+v", st)
	}
	if st.RequiredGiB < 3 || st.RequiredGiB > 4.5 {
		t.Fatalf("required GiB: %v", st.RequiredGiB)
	}
	if st.State != "running" {
		t.Fatalf("state: %s", st.State)
	}
}

// ioCopy is a tiny io.Copy indirection so the test file reads cleanly.
func ioCopy(dst io.Writer, src io.Reader) (int64, error) { return io.Copy(dst, src) }

// TestDebugTraceRequiresToken: with auth_token set, the node's trace
// export sits behind the bearer token like /metrics and the admin
// routes.
func TestDebugTraceRequiresToken(t *testing.T) {
	cfg := config.Default()
	cfg.Global.AuthToken = "secret-token"
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	s := startServer(t, cfg, Options{})

	resp, err := httpClient(s).Get(s.URL() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("/debug/trace without token: status %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, s.URL()+"/debug/trace", nil)
	req.Header.Set("Authorization", "Bearer secret-token")
	resp, err = httpClient(s).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace with token: status %d", resp.StatusCode)
	}
}

// TestOversizedBodyIs413: a request body one byte over the 1 MiB bound
// is answered 413 with an error envelope, not cut short and misreported
// as malformed JSON.
func TestOversizedBodyIs413(t *testing.T) {
	s := testServer(t, ollamaModel("llama3.2:1b-fp16"))
	const head, tail = `{"model":"llama3.2:1b-fp16","messages":[{"role":"user","content":"`, `"}]}`
	body := head + strings.Repeat("x", 1<<20+1-len(head)-len(tail)) + tail
	resp, err := httpClient(s).Post(s.URL()+"/v1/chat/completions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var env ir.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Type != "invalid_request_error" {
		t.Fatalf("413 body: %+v, %v", env, err)
	}
}
