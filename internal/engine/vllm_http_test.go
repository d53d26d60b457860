package engine

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
)

// vllmServer initializes a vLLM engine behind a test HTTP server.
func vllmServer(t *testing.T) (*VLLM, *httptest.Server) {
	t.Helper()
	r := newRig(t)
	e, err := NewVLLM(r.config(t, "vllm-http", "llama3.2:1b-fp16"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	return e, srv
}

func TestVLLMSleepEndpoint(t *testing.T) {
	e, srv := vllmServer(t)
	resp, err := http.Post(srv.URL+"/sleep?level=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sleep status = %d", resp.StatusCode)
	}
	if e.State() != StateSleeping {
		t.Fatalf("state = %v", e.State())
	}

	// Inference while sleeping is rejected with 503.
	seed := int64(1)
	_, err = openai.NewClient(srv.URL).ChatCompletion(context.Background(),
		&ir.ChatCompletionRequest{
			Model:    "llama3.2:1b-fp16",
			Messages: []ir.Message{{Role: "user", Content: "x"}},
			Seed:     &seed,
		})
	if err == nil {
		t.Fatal("request served while sleeping")
	}

	// Health still answers (the process is alive in sleep mode).
	hr, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("health while sleeping = %d", hr.StatusCode)
	}

	// Wake up and serve again.
	resp, err = http.Post(srv.URL+"/wake_up", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("wake status = %d", resp.StatusCode)
	}
	if e.State() != StateReady {
		t.Fatalf("state after wake = %v", e.State())
	}
	if _, err := openai.NewClient(srv.URL).ChatCompletion(context.Background(),
		&ir.ChatCompletionRequest{
			Model:     "llama3.2:1b-fp16",
			Messages:  []ir.Message{{Role: "user", Content: "x"}},
			Seed:      &seed,
			MaxTokens: 2,
		}); err != nil {
		t.Fatalf("request after wake: %v", err)
	}
}

// TestSleepingEngineRejectsEveryFamily: a slept engine answers every
// inference endpoint 503 engine_sleeping, not just chat.
func TestSleepingEngineRejectsEveryFamily(t *testing.T) {
	e, srv := vllmServer(t)
	resp, err := http.Post(srv.URL+"/sleep?level=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.State() != StateSleeping {
		t.Fatalf("state = %v", e.State())
	}
	for _, c := range wireCases {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var env ir.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding error envelope: %v", c.name, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Type != "engine_sleeping" {
			t.Errorf("%s: %d %q, want 503 engine_sleeping", c.name, resp.StatusCode, env.Error.Type)
		}
	}
}

func TestVLLMSleepEndpointLevel2(t *testing.T) {
	e, srv := vllmServer(t)
	resp, err := http.Post(srv.URL+"/sleep?level=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sleep level 2 status = %d", resp.StatusCode)
	}
	if e.State() != StateSleeping {
		t.Fatalf("state = %v", e.State())
	}
}

func TestVLLMSleepEndpointConflict(t *testing.T) {
	_, srv := vllmServer(t)
	// Wake without sleep: 409.
	resp, err := http.Post(srv.URL+"/wake_up", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wake while ready = %d", resp.StatusCode)
	}
	// Double sleep: 409 on the second.
	http.Post(srv.URL+"/sleep?level=1", "", nil)
	resp, err = http.Post(srv.URL+"/sleep?level=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double sleep = %d", resp.StatusCode)
	}
}
