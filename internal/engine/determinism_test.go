package engine

import (
	"context"
	"net/http/httptest"
	"testing"

	"swapservellm/internal/models"
	"swapservellm/internal/openai"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/proxy/ir"
)

// TestCrossEngineDeterminism: with temperature 0 and a fixed seed, every
// engine produces the same completion for the same model and prompt —
// the generation model is engine-agnostic, as §5.1's setup requires for
// comparable measurements.
func TestCrossEngineDeterminism(t *testing.T) {
	outputs := make(map[perfmodel.EngineKind]string)
	for _, kind := range []perfmodel.EngineKind{
		perfmodel.EngineVLLM, perfmodel.EngineOllama, perfmodel.EngineSGLang, perfmodel.EngineTRTLLM,
	} {
		r := newRig(t)
		e, err := New(kind, r.config(t, "det-"+string(kind), "llama3.2:1b-fp16"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Init(context.Background()); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(e.Handler())
		seed := int64(1234)
		temp := 0.0
		resp, err := openai.NewClient(srv.URL).ChatCompletion(context.Background(),
			&ir.ChatCompletionRequest{
				Model:       "llama3.2:1b-fp16",
				Messages:    []ir.Message{{Role: "user", Content: "deterministic?"}},
				Seed:        &seed,
				Temperature: &temp,
				MaxTokens:   12,
			})
		srv.Close()
		e.Shutdown()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		outputs[kind] = resp.Choices[0].Message.Content
	}
	ref := outputs[perfmodel.EngineVLLM]
	if ref == "" {
		t.Fatal("empty completion")
	}
	for kind, out := range outputs {
		if out != ref {
			t.Errorf("%s output diverged: %q vs %q", kind, out, ref)
		}
	}
}

// TestOllamaContextTokensSizeFootprint: larger configured contexts grow
// the runner's KV allocation.
func TestOllamaContextTokensSizeFootprint(t *testing.T) {
	small := OllamaFootprint(mustModel(t, "llama3.1:8b-fp16"), 2048)
	large := OllamaFootprint(mustModel(t, "llama3.1:8b-fp16"), 65536)
	if large <= small {
		t.Fatalf("footprint did not grow with context: %d vs %d", small, large)
	}
	// 65536 tokens × 128 KiB/token ≈ 8 GiB more than the 2048-token cache.
	delta := float64(large-small) / float64(gib)
	if delta < 7 || delta > 9 {
		t.Fatalf("KV delta = %.2f GiB, want ~7.9", delta)
	}
}

func mustModel(t *testing.T, name string) models.Model {
	t.Helper()
	return models.Default().MustLookup(name)
}
