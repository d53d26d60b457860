package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
)

// Fig6aRow is one point of Figure 6a: on-demand swap-in latency with a
// vLLM backend vs its cold-start latency, on the H100 testbed.
type Fig6aRow struct {
	Model        string
	DisplayName  string
	GPUMemGiB    float64
	SwapInSec    float64
	ColdStartSec float64
}

// Fig6bRow is one point of Figure 6b: SwapServeLLM swap-in latency vs
// Ollama's own model loading, on the H100 testbed.
type Fig6bRow struct {
	Model         string
	DisplayName   string
	GPUMemGiB     float64
	SwapInSec     float64
	OllamaLoadSec float64
}

// Figure6Models is the model sweep of both subfigures.
var Figure6Models = []string{
	"llama3.2:1b-fp16",
	"llama3.2:3b-fp16",
	"llama3.1:8b-fp16",
	"deepseek-r1:7b-fp16",
	"deepseek-r1:14b-fp16",
}

// swapInThroughServer builds a single-backend SwapServeLLM server, lets
// the init sequence snapshot it, and measures Reps full swap-in/swap-out
// cycles through the scheduler/controller path. The trial runs on its
// own Virtual clock, so the measured cycle is pure deadline arithmetic
// and identical on every run.
func swapInThroughServer(engineKind string, modelName string) (swapIn time.Duration, gpuBytes int64, err error) {
	cfg := config.Default()
	cfg.Models = []config.Model{{Name: modelName, Engine: engineKind}}
	s, stop, err := startServer(cfg, core.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	b, _ := s.Backend(modelName)
	ctx := context.Background()

	// One untimed warm-up cycle absorbs process cold-start effects (HTTP
	// connection setup, page faults) that the simulation scale would
	// otherwise magnify into seconds.
	if err := s.Scheduler().EnsureRunning(ctx, b); err != nil {
		return 0, 0, err
	}
	if err := s.Controller().SwapOut(ctx, b); err != nil {
		return 0, 0, err
	}

	// Median of five cycles: robust against wall-clock scheduling hiccups.
	const cycles = 5
	var samples []time.Duration
	for rep := 0; rep < cycles; rep++ {
		t0 := s.Clock().Now()
		if err := s.Scheduler().EnsureRunning(ctx, b); err != nil {
			return 0, 0, fmt.Errorf("swap-in %s: %w", modelName, err)
		}
		samples = append(samples, s.Clock().Since(t0))
		gpuBytes = b.Container().Engine().GPUBytes()
		if err := s.Controller().SwapOut(ctx, b); err != nil {
			return 0, 0, fmt.Errorf("swap-out %s: %w", modelName, err)
		}
	}
	return median(samples), gpuBytes, nil
}

// Figure6a reproduces Figure 6a: swap-in latency of vLLM backends
// (each occupying ~90% of the H100) against their cold-start latency.
func Figure6a() ([]Fig6aRow, error) {
	tb := perfmodel.H100()
	cat := models.Default()
	var rows []Fig6aRow
	for _, name := range Figure6Models {
		m := cat.MustLookup(name)
		swap, bytes, err := swapInThroughServer("vllm", name)
		if err != nil {
			return nil, err
		}
		cold := tb.ColdStart(perfmodel.EngineVLLM, m, perfmodel.TierDisk)
		rows = append(rows, Fig6aRow{
			Model:        name,
			DisplayName:  m.DisplayName,
			GPUMemGiB:    gib(bytes),
			SwapInSec:    swap.Seconds(),
			ColdStartSec: cold.Seconds(),
		})
	}
	return rows, nil
}

// Figure6b reproduces Figure 6b: SwapServeLLM swap-in latency with
// Ollama backends against Ollama's native model loading.
func Figure6b() ([]Fig6bRow, error) {
	tb := perfmodel.H100()
	cat := models.Default()
	var rows []Fig6bRow
	for _, name := range Figure6Models {
		m := cat.MustLookup(name)
		swap, bytes, err := swapInThroughServer("ollama", name)
		if err != nil {
			return nil, err
		}
		load := tb.EngineInit(perfmodel.EngineOllama, m, perfmodel.TierDisk).Total()
		rows = append(rows, Fig6bRow{
			Model:         name,
			DisplayName:   m.DisplayName,
			GPUMemGiB:     gib(bytes),
			SwapInSec:     swap.Seconds(),
			OllamaLoadSec: load.Seconds(),
		})
	}
	return rows, nil
}

// PrintFigure6a renders the vLLM swap-in comparison.
func PrintFigure6a(w io.Writer, rows []Fig6aRow) {
	fprintf(w, "Figure 6a: on-demand swap-in with vLLM backends (H100, seconds)\n")
	fprintf(w, "%-10s %12s %11s %14s %9s\n", "Model", "GPU mem(GiB)", "Swap-in(s)", "Cold start(s)", "Speedup")
	for _, r := range rows {
		fprintf(w, "%-10s %12.1f %11.2f %14.2f %8.1fx\n",
			r.DisplayName, r.GPUMemGiB, r.SwapInSec, r.ColdStartSec, r.ColdStartSec/r.SwapInSec)
	}
}

// PrintFigure6b renders the Ollama comparison.
func PrintFigure6b(w io.Writer, rows []Fig6bRow) {
	fprintf(w, "Figure 6b: Ollama loading vs SwapServeLLM swap-in (H100, seconds)\n")
	fprintf(w, "%-10s %12s %15s %11s %9s\n", "Model", "GPU mem(GiB)", "Ollama load(s)", "Swap-in(s)", "Speedup")
	for _, r := range rows {
		fprintf(w, "%-10s %12.1f %15.2f %11.2f %8.1fx\n",
			r.DisplayName, r.GPUMemGiB, r.OllamaLoadSec, r.SwapInSec, r.OllamaLoadSec/r.SwapInSec)
	}
}
