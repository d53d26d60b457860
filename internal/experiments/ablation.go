package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
	"swapservellm/internal/workload"
)

// PolicyAblationRow reports one preemption policy's behaviour on a bursty
// multi-model workload: request latency percentiles and swap churn.
type PolicyAblationRow struct {
	Policy   string
	P50Sec   float64
	P99Sec   float64
	MeanSec  float64
	SwapIns  int64
	SwapOuts int64
	// HotSwapOuts counts evictions of the hot backend: the disruption the
	// demand-aware policy is designed to avoid.
	HotSwapOuts int64
	Served      int
	Errors      int
	ElapsedS    float64
}

// ablationModels is a four-model Ollama fleet whose footprints force
// constant preemption on a deliberately small topology.
var ablationModels = []string{
	"gemma:7b-fp16",
	"deepseek-coder:6.7b-fp16",
	"llama3.1:8b-fp16",
	"deepseek-r1:14b-fp16",
}

// AblationPreemptionPolicy compares the paper's demand-aware policy
// against LRU, largest-first, and round-robin baselines under a skewed
// workload: one hot model receives most requests while cold models
// receive sporadic traffic, so a demand-blind policy keeps evicting the
// hot backend.
func AblationPreemptionPolicy(requests int, seed int64) ([]PolicyAblationRow, error) {
	var rows []PolicyAblationRow
	for _, policyName := range []string{"demand-aware", "lru", "largest-first", "round-robin"} {
		row, err := runPolicyTrial(policyName, requests, seed)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", policyName, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runPolicyTrial runs one bursty trial under the named policy.
func runPolicyTrial(policyName string, requests int, seed int64) (PolicyAblationRow, error) {
	policy, ok := core.PolicyByName(policyName)
	if !ok {
		return PolicyAblationRow{}, fmt.Errorf("unknown policy %q", policyName)
	}
	cfg := config.Default()
	// No response timeout: the trial needs every request's completion
	// latency, however long preemption churn delays it.
	cfg.Global.ResponseTimeoutSec = 0
	for _, name := range ablationModels {
		cfg.Models = append(cfg.Models, config.Model{Name: name, Engine: "ollama"})
	}
	s, stop, err := startServer(cfg, core.Options{Policy: policy})
	if err != nil {
		return PolicyAblationRow{}, err
	}
	defer stop()
	clock := s.Clock()

	// Constrain memory so two of the four models are co-resident but a
	// third always forces an eviction — the policy must then choose
	// between the hot backend and an idle one.
	dev, _ := s.Topology().Device(0)
	if err := dev.Alloc("ablation-squatter", 20*(int64(1)<<30)); err != nil {
		return PolicyAblationRow{}, err
	}

	// Skewed workload: the hot model receives continuous overlapping
	// streams from two "pumps" (sustained ongoing interactions), while
	// sporadic requests rotate across the cold models and force
	// evictions — the situation where demand-awareness matters.
	gen := workload.NewGenerator(seed)
	cli := clientOn(s.URL(), clock)
	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      int
	)
	record := func(start time.Time, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs++
			return
		}
		latencies = append(latencies, clock.Since(start))
	}
	send := func(model string, outTok int) {
		seedv := int64(1)
		start := clock.Now()
		_, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
			Model:     model,
			Messages:  []ir.Message{{Role: "user", Content: "ablation request"}},
			Seed:      &seedv,
			MaxTokens: outTok,
		})
		record(start, err)
	}

	hotN := requests / 2
	coldN := requests - hotN
	t0 := clock.Now()
	clients := simclock.NewGroup(clock)
	for pump := 0; pump < 2; pump++ {
		clients.Go(func() {
			for i := 0; i < hotN/2; i++ {
				send(ablationModels[0], 120)
			}
		})
	}
	clients.Go(func() {
		for i := 0; i < coldN; i++ {
			_, outTok := gen.Tokens(workload.ClassConversational)
			if outTok > 32 {
				outTok = 32
			}
			send(ablationModels[1+i%3], outTok)
		}
	})
	clients.Wait()
	elapsed := clock.Since(t0)

	var swapIns, swapOuts, hotSwapOuts int64
	for _, b := range s.Backends() {
		in, out := b.SwapCounts()
		swapIns += in
		swapOuts += out
		if b.Name() == ablationModels[0] {
			hotSwapOuts = out - 1 // discount the mandatory init snapshot
		}
	}
	row := PolicyAblationRow{
		Policy:      policyName,
		SwapIns:     swapIns,
		SwapOuts:    swapOuts,
		HotSwapOuts: hotSwapOuts,
		Served:      len(latencies),
		Errors:      errs,
		ElapsedS:    elapsed.Seconds(),
	}
	row.P50Sec = quantile(latencies, 0.5)
	row.P99Sec = quantile(latencies, 0.99)
	row.MeanSec = mean(latencies)
	return row, nil
}

// quantile computes an exact quantile in seconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx].Seconds()
}

// PrintPolicyAblation renders the policy comparison.
func PrintPolicyAblation(w io.Writer, rows []PolicyAblationRow) {
	fprintf(w, "Ablation: preemption policy under skewed bursty load\n")
	fprintf(w, "%-14s %8s %8s %8s %9s %9s %10s %7s %7s\n",
		"Policy", "p50(s)", "p99(s)", "mean(s)", "swap-ins", "swap-outs", "hot-evict", "served", "errors")
	for _, r := range rows {
		fprintf(w, "%-14s %8.2f %8.2f %8.2f %9d %9d %10d %7d %7d\n",
			r.Policy, r.P50Sec, r.P99Sec, r.MeanSec, r.SwapIns, r.SwapOuts, r.HotSwapOuts, r.Served, r.Errors)
	}
}

// SleepModeAblationRow compares vLLM swap cycles with and without the
// sleep-mode fast path (§4.2).
type SleepModeAblationRow struct {
	SleepMode   bool
	SnapshotGiB float64
	SwapOutSec  float64
	SwapInSec   float64
}

// AblationSleepMode measures the vLLM sleep-mode optimization: snapshot
// size and swap-out/swap-in latency with the fast path on and off.
func AblationSleepMode() ([]SleepModeAblationRow, error) {
	var rows []SleepModeAblationRow
	for _, sleep := range []bool{false, true} {
		row, err := runSleepModeTrial(sleep)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runSleepModeTrial measures one sleep-mode setting on a fresh server.
func runSleepModeTrial(sleep bool) (SleepModeAblationRow, error) {
	cfg := config.Default()
	cfg.Global.UseSleepMode = sleep
	cfg.Models = []config.Model{{Name: "llama3.1:8b-fp16", Engine: "vllm"}}
	s, stop, err := startServer(cfg, core.Options{})
	if err != nil {
		return SleepModeAblationRow{}, err
	}
	defer stop()
	clock := s.Clock()
	b, _ := s.Backend("llama3.1:8b-fp16")
	ctx := context.Background()

	var outSamples, inSamples []time.Duration
	var snapshot float64
	for rep := 0; rep < Reps; rep++ {
		t0 := clock.Now()
		if err := s.Scheduler().EnsureRunning(ctx, b); err != nil {
			return SleepModeAblationRow{}, err
		}
		inSamples = append(inSamples, clock.Since(t0))

		t1 := clock.Now()
		if err := s.Controller().SwapOut(ctx, b); err != nil {
			return SleepModeAblationRow{}, err
		}
		outSamples = append(outSamples, clock.Since(t1))
		img, _ := s.Registry().Gauge("snapshot_bytes_"+b.Name()).Value(), error(nil)
		snapshot = img / float64(1<<30)
	}
	return SleepModeAblationRow{
		SleepMode:   sleep,
		SnapshotGiB: snapshot,
		SwapOutSec:  mean(outSamples),
		SwapInSec:   mean(inSamples),
	}, nil
}

// PrintSleepModeAblation renders the sleep-mode comparison.
func PrintSleepModeAblation(w io.Writer, rows []SleepModeAblationRow) {
	fprintf(w, "Ablation: vLLM sleep-mode fast path (LLaMA 3.1-8B, H100)\n")
	fprintf(w, "%-12s %13s %12s %11s\n", "Sleep mode", "Snapshot(GiB)", "Swap-out(s)", "Swap-in(s)")
	for _, r := range rows {
		mode := "off"
		if r.SleepMode {
			mode = "on"
		}
		fprintf(w, "%-12s %13.2f %12.2f %11.2f\n", mode, r.SnapshotGiB, r.SwapOutSec, r.SwapInSec)
	}
}

// ConsolidationRow compares provisioning strategies for a model fleet:
// dedicated GPUs vs SwapServeLLM hot-swapping on one GPU.
type ConsolidationRow struct {
	Strategy     string
	GPUs         int
	WorstLatency float64 // worst-case first-token wait, seconds
}

// AblationConsolidation quantifies §6's cost argument for a fleet of six
// high-throughput vLLM backends (each preallocating ~90% of an 80 GiB
// GPU): dedicated provisioning needs one GPU per model, serverless
// scale-from-zero pays the full cold start, and SwapServeLLM serves the
// whole fleet from one GPU at swap-in latency.
func AblationConsolidation() []ConsolidationRow {
	tb := perfmodel.H100()
	cat := models.Default()
	fleet := []string{
		"llama3.2:1b-fp16", "llama3.2:3b-fp16", "llama3.1:8b-fp16",
		"deepseek-r1:7b-fp16", "deepseek-r1:8b-fp16", "deepseek-r1:14b-fp16",
	}
	// vLLM's pooled KV cache claims 90% of the device: no two backends
	// co-reside, so dedicated provisioning needs one GPU per model.
	pool := int64(0.9 * float64(tb.GPUMemBytes))

	var worstSwap, worstCold time.Duration
	for _, name := range fleet {
		m := cat.MustLookup(name)
		if d := tb.CheckpointRestore(pool, m.WeightBytes(), perfmodel.EngineVLLM); d > worstSwap {
			worstSwap = d
		}
		if d := tb.ColdStart(perfmodel.EngineVLLM, m, perfmodel.TierDisk); d > worstCold {
			worstCold = d
		}
	}
	return []ConsolidationRow{
		{Strategy: "dedicated GPUs (always warm)", GPUs: len(fleet), WorstLatency: 0},
		{Strategy: "cold starts on demand (1 GPU)", GPUs: 1, WorstLatency: worstCold.Seconds()},
		{Strategy: "SwapServeLLM hot-swap (1 GPU)", GPUs: 1, WorstLatency: worstSwap.Seconds()},
	}
}

// PrintConsolidation renders the provisioning comparison.
func PrintConsolidation(w io.Writer, rows []ConsolidationRow) {
	fprintf(w, "Ablation: provisioning strategies for the six-model fleet (H100)\n")
	fprintf(w, "%-32s %5s %22s\n", "Strategy", "GPUs", "Worst first-wait (s)")
	for _, r := range rows {
		fprintf(w, "%-32s %5d %22.2f\n", r.Strategy, r.GPUs, r.WorstLatency)
	}
}
