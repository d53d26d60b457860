package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"swapservellm/internal/engine"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
)

// Fig5Row compares Ollama cold loads from disk and memory-backed storage
// against a SwapServeLLM in-memory snapshot restore, for one
// model/quantization on the A100 testbed (means over Reps runs).
type Fig5Row struct {
	Model       string
	DisplayName string
	WeightsGiB  float64
	DiskSec     float64
	MemorySec   float64
	SnapshotSec float64
}

// Figure5Models is the DeepSeek-R1/LLaMA × quantization sweep of the
// figure.
var Figure5Models = []string{
	"deepseek-r1:1.5b-q4", "deepseek-r1:1.5b-q8", "deepseek-r1:1.5b-fp16",
	"deepseek-r1:7b-q4", "deepseek-r1:7b-q8", "deepseek-r1:7b-fp16",
	"deepseek-r1:8b-q4", "deepseek-r1:8b-q8", "deepseek-r1:8b-fp16",
	"deepseek-r1:14b-q4", "deepseek-r1:14b-q8", "deepseek-r1:14b-fp16",
	"llama3.2:1b-q4", "llama3.2:1b-fp16",
	"llama3.1:8b-q4", "llama3.1:8b-fp16",
}

// Figure5 reproduces Figure 5 on the A100 testbed: per model it measures
// (a) an Ollama cold load with weights on disk, (b) the same with a
// memory-backed (tmpfs) store, and (c) a SwapServeLLM snapshot restore
// via the transparent GPU checkpoint driver.
func Figure5() ([]Fig5Row, error) {
	r := newRig(perfmodel.A100())
	defer r.done()
	cat := models.Default()
	ctx := context.Background()

	var rows []Fig5Row
	for i, name := range Figure5Models {
		m := cat.MustLookup(name)
		row := Fig5Row{Model: name, DisplayName: m.DisplayName, WeightsGiB: gib(m.WeightBytes())}

		// (a) and (b): Ollama cold loads per tier. Median of five absorbs
		// host scheduling stalls that the simulation scale magnifies.
		const fig5Reps = 5
		for _, tier := range []perfmodel.StorageTier{perfmodel.TierDisk, perfmodel.TierTmpfs} {
			var samples []time.Duration
			for rep := 0; rep < fig5Reps; rep++ {
				r.stage(m, tier)
				owner := fmt.Sprintf("fig5-%d-%s-%d", i, tier, rep)
				eng, err := engine.NewOllama(r.engineConfig(owner, m, tier))
				if err != nil {
					return nil, err
				}
				t0 := r.clock.Now()
				if _, err := eng.Init(ctx); err != nil {
					return nil, fmt.Errorf("%s (%s): %w", name, tier, err)
				}
				samples = append(samples, r.clock.Since(t0))
				eng.Shutdown()
			}
			// Median absorbs wall-clock hiccups under CPU contention.
			if tier == perfmodel.TierDisk {
				row.DiskSec = median(samples).Seconds()
			} else {
				row.MemorySec = median(samples).Seconds()
			}
		}

		// (c): SwapServeLLM snapshot restore. Initialize once, checkpoint,
		// then measure suspend->resume cycles.
		r.stage(m, perfmodel.TierDisk)
		owner := fmt.Sprintf("fig5-snap-%d", i)
		eng, err := engine.NewOllama(r.engineConfig(owner, m, perfmodel.TierDisk))
		if err != nil {
			return nil, err
		}
		if _, err := eng.Init(ctx); err != nil {
			return nil, err
		}
		if err := r.driver.Register(owner, r.device, perfmodel.EngineOllama, m.WeightBytes()); err != nil {
			return nil, err
		}
		var samples []time.Duration
		for rep := 0; rep < fig5Reps; rep++ {
			if _, err := r.driver.Suspend(ctx, owner); err != nil {
				return nil, err
			}
			eng.Gate().Pause()
			t0 := r.clock.Now()
			if err := r.driver.Resume(ctx, owner, nil); err != nil {
				return nil, err
			}
			eng.Gate().Resume()
			// The engine-resume verification the controller performs.
			r.clock.Sleep(perfmodel.EngineResumeOverhead(perfmodel.EngineOllama))
			samples = append(samples, r.clock.Since(t0))
		}
		row.SnapshotSec = median(samples).Seconds()
		r.driver.Unregister(owner)
		eng.Shutdown()

		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFigure5 renders the loading comparison.
func PrintFigure5(w io.Writer, rows []Fig5Row) {
	fprintf(w, "Figure 5: Ollama model loading vs SwapServeLLM snapshots (A100, seconds)\n")
	fprintf(w, "%-14s %11s %9s %11s %13s\n", "Model", "Weights(GiB)", "Disk(s)", "Memory(s)", "Snapshot(s)")
	for _, r := range rows {
		fprintf(w, "%-14s %11.2f %9.2f %11.2f %13.2f\n",
			r.DisplayName, r.WeightsGiB, r.DiskSec, r.MemorySec, r.SnapshotSec)
	}
}
