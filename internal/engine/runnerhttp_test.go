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

func runnerServer(t *testing.T, deviceBytes int64) (*RunnerManager, *httptest.Server) {
	t.Helper()
	rm, _ := smallDeviceManager(t, deviceBytes)
	srv := httptest.NewServer(rm.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(rm.Shutdown)
	return rm, srv
}

func TestRunnerHTTPChatLoadsOnDemand(t *testing.T) {
	rm, srv := runnerServer(t, 80*gib)
	seed := int64(5)
	resp, err := openai.NewClient(srv.URL).ChatCompletion(context.Background(),
		&ir.ChatCompletionRequest{
			Model:     "llama3.2:1b-fp16",
			Messages:  []ir.Message{{Role: "user", Content: "hello ollama"}},
			Seed:      &seed,
			MaxTokens: 4,
		})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Usage.CompletionTokens != 4 {
		t.Fatalf("usage = %+v", resp.Usage)
	}
	if got := rm.Loaded(); len(got) != 1 || got[0] != "llama3.2:1b-fp16" {
		t.Fatalf("Loaded = %v", got)
	}
}

func TestRunnerHTTPLegacyCompletions(t *testing.T) {
	_, srv := runnerServer(t, 80*gib)
	seed := int64(5)
	resp, err := openai.NewClient(srv.URL).Completion(context.Background(),
		&ir.CompletionRequest{
			Model:     "deepseek-r1:1.5b-q4",
			Prompt:    ir.PromptField{"complete me"},
			Seed:      &seed,
			MaxTokens: 3,
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Choices) != 1 || resp.Choices[0].Text == "" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestRunnerHTTPEvictionVisibleInPS(t *testing.T) {
	// A small device: loading a second large model evicts the first,
	// observable through /api/ps.
	rm, srv := runnerServer(t, 9*gib)
	ask := func(model string) {
		seed := int64(1)
		_, err := openai.NewClient(srv.URL).ChatCompletion(context.Background(),
			&ir.ChatCompletionRequest{
				Model:     model,
				Messages:  []ir.Message{{Role: "user", Content: "x"}},
				Seed:      &seed,
				MaxTokens: 2,
			})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
	}
	ask("llama3.2:1b-q4")
	ask("deepseek-r1:7b-q4") // forces 1b out on the 9 GiB device? both fit; then:
	ask("llama3.1:8b-q4")    // needs eviction

	resp, err := http.Get(srv.URL + "/api/ps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ps struct {
		Models []struct {
			Name    string  `json:"name"`
			SizeGiB float64 `json:"size_gib"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ps); err != nil {
		t.Fatal(err)
	}
	if len(ps.Models) == 0 {
		t.Fatal("no resident runners in /api/ps")
	}
	if ps.Models[0].Name != "llama3.1:8b-q4" {
		t.Fatalf("most recent runner = %s", ps.Models[0].Name)
	}
	for _, m := range ps.Models {
		if m.SizeGiB <= 0 {
			t.Fatalf("runner %s reports no memory", m.Name)
		}
	}
	_ = rm
}

func TestRunnerHTTPErrors(t *testing.T) {
	_, srv := runnerServer(t, 80*gib)
	// Unknown model.
	seed := int64(1)
	_, err := openai.NewClient(srv.URL).ChatCompletion(context.Background(),
		&ir.ChatCompletionRequest{
			Model:    "mystery:1b",
			Messages: []ir.Message{{Role: "user", Content: "x"}},
			Seed:     &seed,
		})
	if err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("unknown model: %v", err)
	}
	// Missing model field.
	resp, err := http.Post(srv.URL+"/v1/chat/completions", "application/json",
		strings.NewReader(`{"messages":[{"role":"user","content":"x"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("missing model status = %d", resp.StatusCode)
	}
	// GET on inference endpoint.
	resp, err = http.Get(srv.URL + "/v1/chat/completions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

func TestRunnerHTTPModels(t *testing.T) {
	_, srv := runnerServer(t, 80*gib)
	list, err := openai.NewClient(srv.URL).ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Data) < 10 {
		t.Fatalf("models = %d, want the full catalog", len(list.Data))
	}
}
