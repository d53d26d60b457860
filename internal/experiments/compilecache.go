package experiments

import (
	"context"
	"io"

	"swapservellm/internal/engine"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
)

// CompileCacheRow compares cold-start mitigation strategies for one vLLM
// model: a plain cold start, a cold start with a warm compilation cache
// (torch.compile artifacts kept across runs — the strongest conventional
// mitigation), and a SwapServeLLM swap-in.
type CompileCacheRow struct {
	Scenario   string
	LatencySec float64
}

// AblationCompileCache measures the three strategies for LLaMA 3.1-8B on
// the H100 testbed. Even against a warm compile cache, hot-swapping wins
// by the CUDA-graph capture and runtime setup it also skips.
func AblationCompileCache() ([]CompileCacheRow, error) {
	r := newRig(perfmodel.H100())
	defer r.done()
	m := models.Default().MustLookup("llama3.1:8b-fp16")
	r.stage(m, perfmodel.TierDisk)
	cache := engine.NewInitCache()
	ctx := context.Background()

	// Cold start, cold cache.
	cfg := r.engineConfig("cc-cold", m, perfmodel.TierDisk)
	cfg.InitCache = cache
	e1, err := engine.NewVLLM(cfg)
	if err != nil {
		return nil, err
	}
	t0 := r.clock.Now()
	if _, err := e1.Init(ctx); err != nil {
		return nil, err
	}
	coldCold := r.clock.Since(t0)
	e1.Shutdown()

	// Cold start, warm cache.
	cfg2 := r.engineConfig("cc-warm", m, perfmodel.TierDisk)
	cfg2.InitCache = cache
	e2, err := engine.NewVLLM(cfg2)
	if err != nil {
		return nil, err
	}
	t1 := r.clock.Now()
	if _, err := e2.Init(ctx); err != nil {
		return nil, err
	}
	coldWarm := r.clock.Since(t1)
	e2.Shutdown()

	// SwapServeLLM swap-in through the full stack.
	swap, _, err := swapInThroughServer("vllm", m.Name)
	if err != nil {
		return nil, err
	}

	boot := perfmodel.EngineBootOverhead(perfmodel.EngineVLLM).Seconds()
	return []CompileCacheRow{
		{Scenario: "cold start, cold compile cache", LatencySec: coldCold.Seconds() + boot},
		{Scenario: "cold start, warm compile cache", LatencySec: coldWarm.Seconds() + boot},
		{Scenario: "SwapServeLLM swap-in", LatencySec: swap.Seconds()},
	}, nil
}

// PrintCompileCache renders the comparison.
func PrintCompileCache(w io.Writer, rows []CompileCacheRow) {
	fprintf(w, "Ablation: cold-start mitigations for vLLM LLaMA 3.1-8B (H100, incl. runtime boot)\n")
	fprintf(w, "%-34s %12s\n", "Scenario", "Latency(s)")
	for _, r := range rows {
		fprintf(w, "%-34s %12.2f\n", r.Scenario, r.LatencySec)
	}
}
