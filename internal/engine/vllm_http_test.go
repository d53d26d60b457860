package engine

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"swapservellm/internal/proxy/ir"
)

// vllmServer initializes a vLLM engine and serves it on the rig's
// clock, returning the server's base URL and a client that reaches it.
func vllmServer(t *testing.T) (*VLLM, string, *http.Client, *testRig) {
	t.Helper()
	r := newRig(t)
	e, err := NewVLLM(r.config(t, "vllm-http", "llama3.2:1b-fp16"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e, r.serve(t, e.Handler()), r.httpClient(), r
}

func TestVLLMSleepEndpoint(t *testing.T) {
	e, url, hc, r := vllmServer(t)
	resp, err := hc.Post(url+"/sleep?level=1", "", nil)
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
	_, err = r.client(url).ChatCompletion(context.Background(),
		&ir.ChatCompletionRequest{
			Model:    "llama3.2:1b-fp16",
			Messages: []ir.Message{{Role: "user", Content: "x"}},
			Seed:     &seed,
		})
	if err == nil {
		t.Fatal("request served while sleeping")
	}

	// Health still answers (the process is alive in sleep mode).
	hr, err := hc.Get(url + "/health")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("health while sleeping = %d", hr.StatusCode)
	}

	// Wake up and serve again.
	resp, err = hc.Post(url+"/wake_up", "", nil)
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
	if _, err := r.client(url).ChatCompletion(context.Background(),
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
	e, url, hc, _ := vllmServer(t)
	resp, err := hc.Post(url+"/sleep?level=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.State() != StateSleeping {
		t.Fatalf("state = %v", e.State())
	}
	for _, c := range wireCases {
		resp, err := hc.Post(url+c.path, "application/json", strings.NewReader(c.body))
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
	e, url, hc, _ := vllmServer(t)
	resp, err := hc.Post(url+"/sleep?level=2", "", nil)
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
	_, url, hc, _ := vllmServer(t)
	// Wake without sleep: 409.
	resp, err := hc.Post(url+"/wake_up", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wake while ready = %d", resp.StatusCode)
	}
	// Double sleep: 409 on the second.
	hc.Post(url+"/sleep?level=1", "", nil)
	resp, err = hc.Post(url+"/sleep?level=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double sleep = %d", resp.StatusCode)
	}
}
