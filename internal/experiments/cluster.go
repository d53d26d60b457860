package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"swapservellm/internal/cluster"
	"swapservellm/internal/config"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
	"swapservellm/internal/workload"
)

// ClusterPlacementRow reports one placement policy's behaviour on the
// three-node diurnal workload: time-to-first-token statistics, how
// often requests landed on an already-warm backend, and the swap and
// failover churn behind them.
type ClusterPlacementRow struct {
	Policy           string
	MeanTTFTSec      float64
	P50TTFTSec       float64
	P99TTFTSec       float64
	PlacementHitRate float64
	CrossNodeRetries int64
	SwapIns          int64
	Served           int
	Errors           int
	ElapsedS         float64
}

// clusterFleet is the twelve-model fleet spread over three nodes: model
// i is replicated on nodes i%3 and (i+1)%3, so every node hosts eight
// models — far more than one 80 GiB GPU can hold resident, forcing the
// hot-swap machinery to do the serving.
var clusterFleet = []string{
	"llama3.2:1b-fp16",
	"llama3.2:3b-fp16",
	"llama3.1:8b-fp16",
	"deepseek-r1:1.5b-fp16",
	"deepseek-r1:7b-fp16",
	"deepseek-r1:8b-fp16",
	"deepseek-r1:14b-fp16",
	"deepseek-coder:6.7b-fp16",
	"gemma:7b-fp16",
	"gemma3:4b-fp16",
	"gemma3:12b-fp16",
	"gemma3:27b-fp16",
}

// clusterDayCompression squeezes the simulated diurnal day into this
// many simulated seconds, keeping the day's shape (quiet nights, busy
// afternoons) while the trial stays tractable.
const clusterDaySec = 1200.0

// clusterTrialsPerPolicy pools this many independent diurnal days (seed,
// seed+1, ...) per policy so a single lucky trace cannot flip the
// comparison.
const clusterTrialsPerPolicy = 3

// AblationClusterPlacement compares the gateway's placement policies —
// locality-first against least-loaded and random baselines — on a
// three-node cluster serving a compressed diurnal day. Locality routing
// concentrates each model's traffic on the node whose backend is
// already warm, converting swap-ins into hot hits; the baselines
// scatter requests and pay the restore cost far more often. Each policy
// is measured over clusterTrialsPerPolicy independent days and the
// per-request TTFTs pooled.
func AblationClusterPlacement(seed int64) ([]ClusterPlacementRow, error) {
	var rows []ClusterPlacementRow
	for _, policy := range []string{"locality", "least-loaded", "random"} {
		row := ClusterPlacementRow{Policy: policy}
		var ttfts []time.Duration
		var hits, total float64
		for trial := int64(0); trial < clusterTrialsPerPolicy; trial++ {
			res, err := runClusterTrial(policy, seed+trial)
			if err != nil {
				return nil, fmt.Errorf("placement %s seed %d: %w", policy, seed+trial, err)
			}
			ttfts = append(ttfts, res.ttfts...)
			hits += res.hits
			total += res.total
			row.CrossNodeRetries += res.retries
			row.SwapIns += res.swapIns
			row.Served += len(res.ttfts)
			row.Errors += res.errs
			row.ElapsedS += res.elapsed.Seconds()
		}
		row.MeanTTFTSec = mean(ttfts)
		row.P50TTFTSec = quantile(ttfts, 0.5)
		row.P99TTFTSec = quantile(ttfts, 0.99)
		if total > 0 {
			row.PlacementHitRate = hits / total
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// clusterTrialConfig builds the three-node deployment for one trial.
func clusterTrialConfig(policy string) config.Cluster {
	cfg := config.DefaultCluster()
	cfg.Cluster.Placement = policy
	cfg.Cluster.HeartbeatSec = 20
	// No response timeout: the trial needs every request's TTFT, however
	// long placement misses delay it.
	cfg.Global.ResponseTimeoutSec = 0
	cfg.Nodes = []config.Node{{Name: "node-0"}, {Name: "node-1"}, {Name: "node-2"}}
	for i, name := range clusterFleet {
		m := config.Model{Name: name, Engine: "ollama"}
		cfg.Nodes[i%3].Models = append(cfg.Nodes[i%3].Models, m)
		cfg.Nodes[(i+1)%3].Models = append(cfg.Nodes[(i+1)%3].Models, m)
	}
	return cfg
}

// clusterArrivals generates the compressed diurnal trace: one day of
// per-model non-homogeneous Poisson arrivals squeezed into
// clusterDaySec simulated seconds. Returns per-request (offset, model,
// maxTokens), sorted by offset.
type clusterArrival struct {
	offset    time.Duration
	model     string
	maxTokens int
}

func clusterArrivals(seed int64) []clusterArrival {
	gen := workload.NewGenerator(seed)
	dayStart := epoch
	dayEnd := epoch.Add(24 * time.Hour)
	compress := clusterDaySec / (24 * time.Hour).Seconds()
	var out []clusterArrival
	for i, model := range clusterFleet {
		class := workload.ClassConversational
		if i%2 == 0 {
			class = workload.ClassCoding
		}
		for _, r := range gen.Arrivals(class, model, dayStart, dayEnd, 1.4, 2.0) {
			maxTok := r.OutputTokens
			if maxTok > 32 {
				maxTok = 32
			}
			if maxTok < 4 {
				maxTok = 4
			}
			out = append(out, clusterArrival{
				offset:    time.Duration(float64(r.At.Sub(dayStart)) * compress),
				model:     model,
				maxTokens: maxTok,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].offset < out[j].offset })
	return out
}

// clusterTrialResult carries one day's raw samples back to the pooling
// layer in AblationClusterPlacement.
type clusterTrialResult struct {
	ttfts       []time.Duration
	errs        int
	retries     int64
	swapIns     int64
	hits, total float64
	elapsed     time.Duration
}

// runClusterTrial serves the compressed diurnal day through one
// placement policy and measures streaming TTFT at the first chunk.
func runClusterTrial(policy string, seed int64) (clusterTrialResult, error) {
	cfg := clusterTrialConfig(policy)
	c, stop, err := startCluster(cfg, cluster.WithSeed(seed))
	if err != nil {
		return clusterTrialResult{}, err
	}
	defer stop()
	clock := c.Clock()

	arrivals := clusterArrivals(seed)
	cli := clientOn(c.URL(), clock)
	var (
		mu    sync.Mutex
		ttfts []time.Duration
		errs  int
	)

	t0 := clock.Now()
	clients := simclock.NewGroup(clock)
	for _, a := range arrivals {
		a := a
		clients.Go(func() {
			// Open-loop arrivals: wait for this request's slot in the
			// compressed day, then fire regardless of earlier completions.
			clock.Sleep(a.offset - clock.Since(t0))
			seedv := seed
			start := clock.Now()
			first := true
			err := cli.ChatCompletionStream(context.Background(), &ir.ChatCompletionRequest{
				Model:     a.model,
				Messages:  []ir.Message{{Role: "user", Content: "diurnal trace request"}},
				Seed:      &seedv,
				MaxTokens: a.maxTokens,
			}, func(ch *ir.ChatCompletionChunk) error {
				if first {
					first = false
					ttft := clock.Since(start)
					mu.Lock()
					ttfts = append(ttfts, ttft)
					mu.Unlock()
				}
				return nil
			})
			if err != nil {
				mu.Lock()
				errs++
				mu.Unlock()
			}
		})
	}
	clients.Wait()

	reg := c.Registry()
	res := clusterTrialResult{
		ttfts:   ttfts,
		errs:    errs,
		retries: int64(reg.Counter("cross_node_retries").Value()),
		hits:    reg.Counter("placement_hits").Value(),
		total:   reg.Counter("placement_total").Value(),
		elapsed: clock.Since(t0),
	}
	for _, n := range c.Nodes() {
		res.swapIns += n.Report().SwapIns
	}
	return res, nil
}

// PrintClusterPlacement renders the placement-policy comparison.
func PrintClusterPlacement(w io.Writer, rows []ClusterPlacementRow) {
	fprintf(w, "Ablation: cluster placement policy (3 nodes x 80 GiB, 12 models, compressed diurnal day)\n")
	fprintf(w, "%-14s %9s %9s %9s %9s %8s %9s %7s %7s\n",
		"Policy", "mean(s)", "p50(s)", "p99(s)", "hit-rate", "retries", "swap-ins", "served", "errors")
	for _, r := range rows {
		fprintf(w, "%-14s %9.2f %9.2f %9.2f %9.2f %8d %9d %7d %7d\n",
			r.Policy, r.MeanTTFTSec, r.P50TTFTSec, r.P99TTFTSec,
			r.PlacementHitRate, r.CrossNodeRetries, r.SwapIns, r.Served, r.Errors)
	}
}

// ClusterPlacementCSV renders cluster placement rows as CSV lines.
func ClusterPlacementCSV(rows []ClusterPlacementRow) (header string, out []string) {
	header = "policy,mean_ttft_s,p50_ttft_s,p99_ttft_s,placement_hit_rate,cross_node_retries,swap_ins,served,errors,elapsed_s"
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%.4f,%.4f,%.4f,%.4f,%d,%d,%d,%d,%.1f",
			r.Policy, r.MeanTTFTSec, r.P50TTFTSec, r.P99TTFTSec, r.PlacementHitRate,
			r.CrossNodeRetries, r.SwapIns, r.Served, r.Errors, r.ElapsedS))
	}
	return header, out
}
