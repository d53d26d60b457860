// Benchmarks regenerating every table and figure from the paper's
// evaluation (§5), plus the ablation studies from DESIGN.md. Each
// benchmark runs the corresponding experiment end-to-end against the
// simulated substrates and reports its headline numbers as custom
// metrics; run with -v to print the full rows the paper reports.
//
//	go test -bench=. -benchmem
//	go test -v -bench=Figure6 -run=^$        # rows + metrics for Figure 6
package swapservellm

import (
	"os"
	"testing"
	"time"

	"swapservellm/internal/experiments"
	"swapservellm/internal/workload"
)

// printTables controls whether benchmarks print the full row output.
func printTables() bool { return testing.Verbose() }

// BenchmarkFigure1TokenVolume regenerates Figure 1: a synthetic week of
// Coding and Conversational token volume with the Azure traces' diurnal
// and weekend structure.
func BenchmarkFigure1TokenVolume(b *testing.B) {
	var series []experiments.Fig1Series
	for i := 0; i < b.N; i++ {
		series = experiments.Figure1(42)
	}
	if printTables() {
		experiments.PrintFigure1(os.Stdout, series)
	}
	coding := experiments.Summarize(series[0])
	b.ReportMetric(coding.PeakTroughRatio, "coding-peak:trough")
	b.ReportMetric(100*coding.WeekendReduction, "coding-weekend-drop-%")
}

// BenchmarkFigure2ColdStart regenerates Figure 2: cold-start latency
// (container startup + engine init) for vLLM, Ollama, SGLang, and
// TensorRT-LLM across the model sweep on the H100 testbed.
func BenchmarkFigure2ColdStart(b *testing.B) {
	var rows []experiments.Fig2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintFigure2(os.Stdout, rows)
	}
	for _, r := range rows {
		if r.Model == "llama3.1:8b-fp16" {
			b.ReportMetric(r.ColdStartSec, string(r.Engine)+"-8B-cold-s")
		}
	}
}

// BenchmarkFigure3ClusterUtilization regenerates Figure 3: a month of
// GPU utilization and memory for six models on one H100 under dedicated
// provisioning.
func BenchmarkFigure3ClusterUtilization(b *testing.B) {
	var res experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure3(7)
	}
	if printTables() {
		experiments.PrintFigure3(os.Stdout, res)
	}
	b.ReportMetric(100*res.MeanUtil, "mean-util-%")
	b.ReportMetric(100*res.MemFrac, "resident-mem-%")
}

// BenchmarkTable1VLLMInitBreakdown regenerates Table 1: the vLLM
// initialization phase breakdown for the ten evaluated models.
func BenchmarkTable1VLLMInitBreakdown(b *testing.B) {
	var rows []experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintTable1(os.Stdout, rows)
	}
	for _, r := range rows {
		if r.DisplayName == "DS-14B" {
			b.ReportMetric(r.TotalSec, "DS-14B-total-s")
			b.ReportMetric(r.CompileSec, "DS-14B-compile-s")
		}
	}
}

// BenchmarkFigure5OllamaLoading regenerates Figure 5: Ollama cold loads
// from disk and memory-backed storage vs SwapServeLLM in-memory
// snapshots on the A100 testbed.
func BenchmarkFigure5OllamaLoading(b *testing.B) {
	var rows []experiments.Fig5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintFigure5(os.Stdout, rows)
	}
	for _, r := range rows {
		if r.Model == "deepseek-r1:14b-fp16" {
			b.ReportMetric(r.DiskSec, "14B-disk-s")
			b.ReportMetric(r.MemorySec, "14B-mem-s")
			b.ReportMetric(r.SnapshotSec, "14B-snapshot-s")
		}
	}
}

// BenchmarkFigure6aSwapInVLLM regenerates Figure 6a: on-demand swap-in
// latency with vLLM backends through the full SwapServeLLM stack.
func BenchmarkFigure6aSwapInVLLM(b *testing.B) {
	var rows []experiments.Fig6aRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure6a()
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintFigure6a(os.Stdout, rows)
	}
	b.ReportMetric(rows[0].SwapInSec, "1B-swapin-s")
	b.ReportMetric(rows[len(rows)-1].SwapInSec, "14B-swapin-s")
}

// BenchmarkFigure6bSwapInOllama regenerates Figure 6b: SwapServeLLM
// swap-in vs Ollama model loading through the full stack.
func BenchmarkFigure6bSwapInOllama(b *testing.B) {
	var rows []experiments.Fig6bRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure6b()
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintFigure6b(os.Stdout, rows)
	}
	b.ReportMetric(rows[0].SwapInSec, "1B-swapin-s")
	b.ReportMetric(rows[len(rows)-1].SwapInSec, "14B-swapin-s")
}

// BenchmarkHeadlineClaims derives the paper's abstract-level claims
// (18-31x over vLLM, up to 29% over Ollama) from the Figure 6 runs.
func BenchmarkHeadlineClaims(b *testing.B) {
	var h experiments.HeadlineResult
	for i := 0; i < b.N; i++ {
		a6, err := experiments.Figure6a()
		if err != nil {
			b.Fatal(err)
		}
		b6, err := experiments.Figure6b()
		if err != nil {
			b.Fatal(err)
		}
		h = experiments.Headline(a6, b6)
	}
	if printTables() {
		experiments.PrintHeadline(os.Stdout, h)
	}
	b.ReportMetric(h.VLLMSpeedupMax, "vllm-speedup-max")
	b.ReportMetric(h.OllamaSmallSpeedup, "ollama-1B-speedup")
	b.ReportMetric(100*h.OllamaLargeImprovement, "ollama-14B-improve-%")
}

// BenchmarkAblationPreemptionPolicy compares the demand-aware policy
// against LRU, largest-first, and round-robin on a skewed bursty load.
func BenchmarkAblationPreemptionPolicy(b *testing.B) {
	var rows []experiments.PolicyAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationPreemptionPolicy(48, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintPolicyAblation(os.Stdout, rows)
	}
	for _, r := range rows {
		if r.Policy == "demand-aware" {
			b.ReportMetric(r.P99Sec, "demand-aware-p99-s")
			b.ReportMetric(float64(r.HotSwapOuts), "demand-aware-hot-evicts")
		}
		if r.Policy == "round-robin" {
			b.ReportMetric(float64(r.HotSwapOuts), "round-robin-hot-evicts")
		}
	}
}

// BenchmarkAblationSleepMode measures the vLLM sleep-mode fast path's
// effect on snapshot size and swap latency.
func BenchmarkAblationSleepMode(b *testing.B) {
	var rows []experiments.SleepModeAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationSleepMode()
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintSleepModeAblation(os.Stdout, rows)
	}
	b.ReportMetric(rows[0].SwapInSec, "swapin-off-s")
	b.ReportMetric(rows[1].SwapInSec, "swapin-sleep-s")
}

// BenchmarkAblationPipelinedSwap measures the full-duplex pipelined
// swap exchange (victim checkpoint overlapped with target restore)
// against the sequential swap-out-then-swap-in baseline across the
// Figure 6 sweep.
func BenchmarkAblationPipelinedSwap(b *testing.B) {
	var rows []experiments.PipelineRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationPipelinedSwap()
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintPipeline(os.Stdout, rows)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.SequentialSec, "14B-sequential-s")
	b.ReportMetric(last.PipelinedSec, "14B-pipelined-s")
	var imp float64
	for _, r := range rows {
		imp += r.ImprovementPct
	}
	b.ReportMetric(imp/float64(len(rows)), "mean-improvement-%")
}

// BenchmarkAblationConsolidation quantifies §6's models-per-GPU
// consolidation argument.
func BenchmarkAblationConsolidation(b *testing.B) {
	var rows []experiments.ConsolidationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationConsolidation()
	}
	if printTables() {
		experiments.PrintConsolidation(os.Stdout, rows)
	}
	b.ReportMetric(float64(rows[0].GPUs), "dedicated-gpus")
	b.ReportMetric(rows[2].WorstLatency, "hotswap-worst-wait-s")
}

// BenchmarkWorkloadGeneration measures the arrival-trace generator
// itself (a day of bursty coding traffic).
func BenchmarkWorkloadGeneration(b *testing.B) {
	g := workload.NewGenerator(1)
	start := experimentsEpoch()
	for i := 0; i < b.N; i++ {
		reqs := g.Arrivals(workload.ClassCoding, "m", start, start.AddDate(0, 0, 1), 600, 2)
		if len(reqs) == 0 {
			b.Fatal("no arrivals")
		}
	}
}

// experimentsEpoch mirrors the experiments package's fixed origin.
func experimentsEpoch() time.Time {
	return time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)
}

// BenchmarkAblationElasticity compares always-warm, reactive hot-swap,
// and predictive-prefetch strategies on identical bursty traffic,
// reporting the latency/GPU-cost trade-off.
func BenchmarkAblationElasticity(b *testing.B) {
	var rows []experiments.ElasticityRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationElasticity(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintElasticity(os.Stdout, rows)
	}
	b.ReportMetric(rows[0].MemGiBSec, "warm-mem-GiBs")
	b.ReportMetric(rows[1].MemGiBSec, "hotswap-mem-GiBs")
	b.ReportMetric(rows[1].MeanSec, "hotswap-mean-s")
}

// BenchmarkAblationSnapshotTiering measures swap-ins from RAM-resident
// vs disk-spilled checkpoint images under a host-memory cap.
func BenchmarkAblationSnapshotTiering(b *testing.B) {
	var rows []experiments.TieringRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationSnapshotTiering()
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintSnapshotTiering(os.Stdout, rows)
	}
	for _, r := range rows {
		b.ReportMetric(r.SwapInSec, r.Location+"-"+r.Scenario[len(r.Scenario)-4:]+"-s")
	}
}

// BenchmarkAblationClusterPlacement compares the cluster gateway's
// locality-first placement against least-loaded and random baselines on
// a three-node, twelve-model deployment serving a compressed diurnal
// day, reporting streaming TTFT and the placement hit rate.
func BenchmarkAblationClusterPlacement(b *testing.B) {
	var rows []experiments.ClusterPlacementRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationClusterPlacement(11)
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintClusterPlacement(os.Stdout, rows)
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanTTFTSec, r.Policy+"-mean-ttft-s")
		if r.Policy == "locality" {
			b.ReportMetric(r.PlacementHitRate, "locality-hit-rate")
		}
	}
}

// BenchmarkAblationCompileCache compares plain cold starts, warm
// compile-cache cold starts, and hot-swapping for vLLM LLaMA 3.1-8B.
func BenchmarkAblationCompileCache(b *testing.B) {
	var rows []experiments.CompileCacheRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationCompileCache()
		if err != nil {
			b.Fatal(err)
		}
	}
	if printTables() {
		experiments.PrintCompileCache(os.Stdout, rows)
	}
	b.ReportMetric(rows[0].LatencySec, "cold-cold-s")
	b.ReportMetric(rows[1].LatencySec, "cold-warmcache-s")
	b.ReportMetric(rows[2].LatencySec, "swapin-s")
}
