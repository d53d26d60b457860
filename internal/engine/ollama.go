package engine

import (
	"context"
	"net/http"

	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
)

// Ollama simulates the Ollama engine: a lightweight llama.cpp runner per
// model that skips compilation and graph capture (fast loads, lower
// decode throughput — §2.3), and allocates GPU memory proportional to the
// model rather than preallocating a pool. Each instance serves one
// model; SwapServeLLM's scheduler, not Ollama's own multi-model LRU
// runner, decides which models stay loaded.
type Ollama struct {
	*base
}

// NewOllama constructs an Ollama runner for one model.
func NewOllama(cfg Config) (*Ollama, error) {
	b, err := newBase(perfmodel.EngineOllama, cfg)
	if err != nil {
		return nil, err
	}
	return &Ollama{base: b}, nil
}

// OllamaFootprint returns the steady-state GPU bytes an Ollama runner
// needs for the model with a KV cache of ctxTokens tokens: weights + KV +
// CUDA context and compute buffers. Fitted to Figure 6b's reported usage
// (3.6 GB for LLaMA 3.2 1B FP16, 30.5 GB for DS-R1 14B FP16).
func OllamaFootprint(m models.Model, ctxTokens int) int64 {
	if ctxTokens <= 0 {
		ctxTokens = 2048 * 4
	}
	w := m.WeightBytes()
	overhead := int64(models.GiB)*9/10 + w/25 // 0.9 GiB + 4% of weights
	return w + m.KVCacheBytes(ctxTokens) + overhead
}

// Init implements Engine.
func (o *Ollama) Init(ctx context.Context) (perfmodel.InitBreakdown, error) {
	perDevice := OllamaFootprint(o.cfg.Model, o.cfg.ContextTokens) / int64(len(o.cfg.Devices))
	return o.runInit(ctx, perDevice)
}

// Handler implements Engine.
func (o *Ollama) Handler() http.Handler { return o.handlerWith(nil) }

var _ Engine = (*Ollama)(nil)
