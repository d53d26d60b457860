package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// ElasticityRow quantifies the paper's cost-effectiveness claim for one
// provisioning strategy: request latency against the GPU memory actually
// occupied over the run (GiB·s — the resource a provider pays for).
type ElasticityRow struct {
	Strategy   string
	MeanSec    float64
	P99Sec     float64
	MemGiBSec  float64 // integral of device memory usage over the run
	SwapIns    int64
	IdleReaps  float64
	Prefetches float64
}

// elasticityModels are three Ollama backends with distinct burst periods.
var elasticityModels = []string{
	"llama3.2:1b-fp16",
	"llama3.2:3b-fp16",
	"deepseek-r1:7b-q4",
}

// AblationElasticity replays identical periodic-burst traffic under three
// strategies: always-warm (dedicated residency), reactive hot-swapping
// with a keep-alive window, and hot-swapping with the predictive
// prefetcher. It reports the latency/cost trade-off each strategy buys.
func AblationElasticity(seed int64) ([]ElasticityRow, error) {
	type strategy struct {
		name      string
		keepWarm  bool
		keepAlive float64
		prefetch  bool
	}
	strategies := []strategy{
		{name: "always-warm", keepWarm: true},
		{name: "hot-swap (keep-alive 15s)", keepAlive: 15},
		{name: "hot-swap + prefetch", keepAlive: 15, prefetch: true},
	}
	var rows []ElasticityRow
	for _, st := range strategies {
		row, err := runElasticityTrial(st.name, st.keepWarm, st.keepAlive, st.prefetch, seed)
		if err != nil {
			return nil, fmt.Errorf("strategy %s: %w", st.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runElasticityTrial runs one strategy for ~150 simulated seconds of
// periodic bursts.
func runElasticityTrial(name string, keepWarm bool, keepAliveSec float64, prefetch bool, seed int64) (ElasticityRow, error) {
	cfg := config.Default()
	cfg.Global.ResponseTimeoutSec = 0
	cfg.Global.KeepAliveSec = keepAliveSec
	cfg.Global.Prefetch = prefetch
	for _, m := range elasticityModels {
		cfg.Models = append(cfg.Models, config.Model{Name: m, Engine: "ollama", KeepWarm: keepWarm})
	}
	s, stop, err := startServer(cfg, core.Options{})
	if err != nil {
		return ElasticityRow{}, err
	}
	defer stop()
	clock := s.Clock()
	dev, _ := s.Topology().Device(0)

	// Fixed integration horizon so every strategy is charged over the
	// same simulated window regardless of how long its stragglers run.
	const runFor = 150 * time.Second
	horizon := clock.Now().Add(runFor)

	// Exact memory-cost accounting: the device accumulates used·dt on
	// every allocation change — no polling goroutine.
	dev.EnableUsageTracking(clock.Now)

	// Periodic bursts: model i sends a burst of two requests every
	// period_i, until the horizon.
	periods := []time.Duration{10 * time.Second, 25 * time.Second, 50 * time.Second}
	cli := clientOn(s.URL(), clock)
	var (
		mu        sync.Mutex
		latencies []time.Duration
	)
	clients := simclock.NewGroup(clock)
	var firstErr error
	for i, model := range elasticityModels {
		model, period := model, periods[i]
		clients.Go(func() {
			for clock.Now().Before(horizon) {
				for r := 0; r < 2; r++ {
					seedv := seed
					t0 := clock.Now()
					_, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
						Model:     model,
						Messages:  []ir.Message{{Role: "user", Content: "burst"}},
						Seed:      &seedv,
						MaxTokens: 8,
					})
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					if err == nil {
						latencies = append(latencies, clock.Since(t0))
					}
					mu.Unlock()
				}
				if !clock.Now().Add(period).Before(horizon) {
					break
				}
				clock.Sleep(period)
			}
		})
	}
	clients.Wait()
	memIntegral := dev.UsageIntegral() / float64(1<<30) // GiB * simulated seconds
	if firstErr != nil {
		return ElasticityRow{}, firstErr
	}

	var swapIns int64
	for _, b := range s.Backends() {
		in, _ := b.SwapCounts()
		swapIns += in
	}
	return ElasticityRow{
		Strategy:   name,
		MeanSec:    mean(latencies),
		P99Sec:     quantile(latencies, 0.99),
		MemGiBSec:  memIntegral,
		SwapIns:    swapIns,
		IdleReaps:  s.Registry().Counter("idle_reaps").Value(),
		Prefetches: s.Registry().Counter("prefetch_swap_ins").Value(),
	}, nil
}

// PrintElasticity renders the strategy comparison.
func PrintElasticity(w io.Writer, rows []ElasticityRow) {
	fprintf(w, "Ablation: elasticity strategies, identical bursty traffic (~150s simulated)\n")
	fprintf(w, "%-26s %9s %8s %13s %9s %6s %10s\n",
		"Strategy", "mean(s)", "p99(s)", "mem(GiB*s)", "swap-ins", "reaps", "prefetches")
	for _, r := range rows {
		fprintf(w, "%-26s %9.2f %8.2f %13.0f %9d %6.0f %10.0f\n",
			r.Strategy, r.MeanSec, r.P99Sec, r.MemGiBSec, r.SwapIns, r.IdleReaps, r.Prefetches)
	}
}

// TieringRow compares restoring checkpoint images from host RAM against
// images spilled to disk under host-memory pressure.
type TieringRow struct {
	Scenario    string
	SwapInSec   float64
	Location    string
	SnapshotGiB float64
}

// AblationSnapshotTiering demonstrates the snapshot-tier extension: three
// 14B Ollama backends are snapshotted under a host cap that only holds
// two images, forcing one to disk; swap-in latency is then measured per
// tier.
func AblationSnapshotTiering() ([]TieringRow, error) {
	cfg := config.Default()
	cfg.Global.SnapshotHostCapGiB = 40
	modelsUsed := []string{"deepseek-r1:14b-fp16", "deepseek-r1:14b-q8", "deepseek-r1:14b-q4"}
	for _, m := range modelsUsed {
		cfg.Models = append(cfg.Models, config.Model{Name: m, Engine: "ollama"})
	}
	s, stop, err := startServer(cfg, core.Options{})
	if err != nil {
		return nil, err
	}
	defer stop()
	clock := s.Clock()

	// Measure each backend's swap-in from wherever its image landed after
	// the init sequence, leaving it resident so the tiers are not
	// reshuffled by further checkpoints (all three fit on the GPU
	// simultaneously).
	var rows []TieringRow
	for _, name := range modelsUsed {
		b, _ := s.Backend(name)
		loc, err := s.Driver().ImageLocation(b.Container().ID())
		if err != nil {
			return nil, err
		}
		img, _ := s.Driver().ImageBytes(b.Container().ID())
		t0 := clock.Now()
		if err := s.Scheduler().EnsureRunning(context.Background(), b); err != nil {
			return nil, err
		}
		rows = append(rows, TieringRow{
			Scenario:    name,
			SwapInSec:   clock.Since(t0).Seconds(),
			Location:    loc.String(),
			SnapshotGiB: float64(img) / float64(1<<30),
		})
	}
	return rows, nil
}

// PrintSnapshotTiering renders the tiering comparison.
func PrintSnapshotTiering(w io.Writer, rows []TieringRow) {
	fprintf(w, "Ablation: snapshot tiering under a 40 GiB host-memory cap\n")
	fprintf(w, "%-24s %10s %14s %12s\n", "Model", "Tier", "Snapshot(GiB)", "Swap-in(s)")
	for _, r := range rows {
		fprintf(w, "%-24s %10s %14.1f %12.2f\n", r.Scenario, r.Location, r.SnapshotGiB, r.SwapInSec)
	}
}
