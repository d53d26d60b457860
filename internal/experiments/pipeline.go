package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/models"
	"swapservellm/internal/obs"
	"swapservellm/internal/simclock"
)

// PipelineRow is one point of the pipelined-swap ablation: the full
// model-switch latency (victim swap-out start to target serving) of a
// sequential exchange vs the full-duplex pipelined exchange, for one
// target model of the Figure 6 sweep.
type PipelineRow struct {
	Model          string
	DisplayName    string
	GPUMemGiB      float64
	SequentialSec  float64
	PipelinedSec   float64
	ImprovementPct float64
}

// pipelinePartner is the fixed running victim every exchange preempts:
// a vLLM backend (pool ≈90% of the device regardless of weights), so
// each trial is an 80 GiB-class exchange on the H100. It is chosen from
// the catalog outside the Figure 6 sweep because a config cannot list
// the same model twice.
const pipelinePartner = "deepseek-r1:8b-fp16"

// exchangeThroughServer builds a two-backend server (the target model,
// snapshotted by the init sequence, plus the keep-warm partner victim)
// and measures the median latency of the served swap-in that brings the
// target in — Scheduler.EnsureRunning, which evicts the victim to make
// room — over repeated cycles, with the pipelined fast path on or off.
// The server runs on the caller's shared Virtual clock — one timeline
// across every trial, so a shared tracer sees a single consistent
// timebase — and the caller's goroutine must already be registered with
// that clock's gate.
func exchangeThroughServer(modelName string, pipelined bool, clock simclock.Clock, tracer *obs.Tracer) (latency time.Duration, gpuBytes int64, err error) {
	cfg := config.Default()
	cfg.Global.PipelinedSwap = pipelined
	cfg.Models = []config.Model{
		{Name: modelName, Engine: "vllm"},
		{Name: pipelinePartner, Engine: "vllm", KeepWarm: true},
	}
	s, stop, err := startServer(cfg, core.Options{Clock: clock, Tracer: tracer})
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	target, _ := s.Backend(modelName)
	victim, _ := s.Backend(pipelinePartner)
	sched := s.Scheduler()
	ctx := context.Background()

	// One untimed warm-up round trip absorbs process cold-start effects
	// the simulation scale would otherwise magnify into seconds.
	if err := sched.EnsureRunning(ctx, target); err != nil {
		return 0, 0, fmt.Errorf("warm-up exchange %s: %w", modelName, err)
	}
	if err := sched.EnsureRunning(ctx, victim); err != nil {
		return 0, 0, fmt.Errorf("warm-up re-arm %s: %w", modelName, err)
	}

	// Median of three cycles: each cycle times the exchange that brings
	// the sweep model in, then exchanges back (untimed) to re-arm.
	const cycles = 3
	var samples []time.Duration
	for rep := 0; rep < cycles; rep++ {
		t0 := s.Clock().Now()
		if err := sched.EnsureRunning(ctx, target); err != nil {
			return 0, 0, fmt.Errorf("exchange %s: %w", modelName, err)
		}
		samples = append(samples, s.Clock().Since(t0))
		gpuBytes = target.Container().Engine().GPUBytes()
		if err := sched.EnsureRunning(ctx, victim); err != nil {
			return 0, 0, fmt.Errorf("re-arm exchange %s: %w", modelName, err)
		}
	}
	return median(samples), gpuBytes, nil
}

// AblationPipelinedSwap measures the full-duplex pipelined exchange
// against the sequential swap-out-then-swap-in baseline across the
// Figure 6 model sweep: the victim's D2H checkpoint and the target's
// H2D restore overlap on the full-duplex PCIe link, so the pipelined
// switch completes in roughly the slower transfer's time instead of the
// sum.
func AblationPipelinedSwap() ([]PipelineRow, error) {
	return AblationPipelinedSwapTraced(nil)
}

// AblationPipelinedSwapTraced is AblationPipelinedSwap with
// swap-lifecycle tracing: when traceOut is non-nil, every trial runs
// under one shared tracer and the combined Chrome trace_event JSON —
// swap.exchange spans nesting the ckpt.* phases and their per-chunk
// events, sequential and pipelined side by side — is written to
// traceOut at the end.
func AblationPipelinedSwapTraced(traceOut io.Writer) ([]PipelineRow, error) {
	clock, gate := virtualClock()
	defer gate.Exit()
	var tracer *obs.Tracer
	if traceOut != nil {
		tracer = obs.NewTracer(clock)
	}
	cat := models.Default()
	var rows []PipelineRow
	for _, name := range Figure6Models {
		m := cat.MustLookup(name)
		seq, bytes, err := exchangeThroughServer(name, false, clock, tracer)
		if err != nil {
			return nil, fmt.Errorf("sequential %s: %w", name, err)
		}
		pipe, _, err := exchangeThroughServer(name, true, clock, tracer)
		if err != nil {
			return nil, fmt.Errorf("pipelined %s: %w", name, err)
		}
		rows = append(rows, PipelineRow{
			Model:          name,
			DisplayName:    m.DisplayName,
			GPUMemGiB:      gib(bytes),
			SequentialSec:  seq.Seconds(),
			PipelinedSec:   pipe.Seconds(),
			ImprovementPct: 100 * (1 - pipe.Seconds()/seq.Seconds()),
		})
	}
	if traceOut != nil {
		if err := tracer.WriteTraceEvents(traceOut); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return rows, nil
}

// PrintPipeline renders the pipelined-swap ablation.
func PrintPipeline(w io.Writer, rows []PipelineRow) {
	fprintf(w, "Ablation: sequential vs pipelined full-duplex swap exchange (vLLM, H100, seconds)\n")
	fprintf(w, "%-10s %12s %14s %13s %12s\n",
		"Model", "GPU mem(GiB)", "Sequential(s)", "Pipelined(s)", "Improvement")
	for _, r := range rows {
		fprintf(w, "%-10s %12.1f %14.2f %13.2f %11.1f%%\n",
			r.DisplayName, r.GPUMemGiB, r.SequentialSec, r.PipelinedSec, r.ImprovementPct)
	}
}

// PipelineCSV renders pipeline ablation rows as CSV lines.
func PipelineCSV(rows []PipelineRow) (header string, out []string) {
	header = "model,display,gpu_mem_gib,sequential_s,pipelined_s,improvement_pct"
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%s,%.1f,%.2f,%.2f,%.1f",
			r.Model, r.DisplayName, r.GPUMemGiB, r.SequentialSec, r.PipelinedSec, r.ImprovementPct))
	}
	return header, out
}

// PipelineBenchJSON renders the pipeline ablation as the committed
// BENCH_pipeline.json artifact. The sweep runs on the Virtual clock, so
// regeneration is byte-identical.
func PipelineBenchJSON(rows []PipelineRow) string {
	out := "{\n"
	out += "  \"benchmark\": \"AblationPipelinedSwap\",\n"
	out += "  \"description\": \"Full model-switch latency (victim swap-out start to target serving) of the sequential swap-out-then-swap-in baseline vs the pipelined full-duplex exchange, for each Figure 6 target model preempting a keep-warm vLLM victim (both pooling ~72 GiB of the 80 GiB H100).\",\n"
	out += "  \"testbed\": \"h100\",\n"
	out += "  \"engine\": \"vllm\",\n"
	out += fmt.Sprintf("  \"victim\": %q,\n", pipelinePartner)
	out += "  \"command\": \"go run ./cmd/swapbench -exp pipeline\",\n"
	out += "  \"rows\": [\n"
	var sum float64
	out += jsonList(rows, func(r PipelineRow) string {
		sum += r.ImprovementPct
		return fmt.Sprintf("{\"model\": %q, \"display\": %q, \"gpu_mem_gib\": %.1f, \"sequential_s\": %.2f, \"pipelined_s\": %.2f, \"improvement_pct\": %.1f}",
			r.Model, r.DisplayName, r.GPUMemGiB, r.SequentialSec, r.PipelinedSec, r.ImprovementPct)
	})
	out += "  ],\n"
	mean := 0.0
	if len(rows) > 0 {
		mean = sum / float64(len(rows))
	}
	out += fmt.Sprintf("  \"mean_improvement_pct\": %.1f\n}\n", mean)
	return out
}
