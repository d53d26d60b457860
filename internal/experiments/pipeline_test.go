package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAblationPipelinedSwap asserts the headline property of the
// full-duplex exchange: for every 80 GiB-class vLLM pair in the sweep,
// the pipelined model switch (victim swap-out start to target serving)
// is at least 25% faster than the sequential baseline, because the D2H
// checkpoint and H2D restore overlap on the full-duplex PCIe link. The
// sweep runs on a Virtual clock, so the margin holds unconditionally —
// including under -race.
func TestAblationPipelinedSwap(t *testing.T) {
	rows, err := AblationPipelinedSwap()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Figure6Models) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Figure6Models))
	}
	for _, r := range rows {
		// vLLM pools ~90% of the 80 GiB device regardless of weights.
		within(t, r.Model+" gpu mem", r.GPUMemGiB, 72, 0.03)
		if r.PipelinedSec >= r.SequentialSec {
			t.Errorf("%s: pipelined %.2fs not faster than sequential %.2fs",
				r.Model, r.PipelinedSec, r.SequentialSec)
		}
		if r.ImprovementPct < 25 {
			t.Errorf("%s: improvement %.1f%%, want >= 25%%", r.Model, r.ImprovementPct)
		}
	}
}

// TestPipelineGoldenDeterminism runs the traced pipelined-swap sweep
// twice and demands a byte-identical Chrome trace_event JSON, the one
// pipeline artifact too large for a golden (TestExperimentGoldens pins
// the table and BENCH_pipeline.json, which carry every CSV value). On
// the Virtual clock the trace is a function of the perfmodel alone; a
// single differing byte means nondeterminism leaked back into the
// harness (an unregistered goroutine, a map-order dependence, a
// wall-clock read).
func TestPipelineGoldenDeterminism(t *testing.T) {
	run := func() string {
		var trace bytes.Buffer
		if _, err := AblationPipelinedSwapTraced(&trace); err != nil {
			t.Fatal(err)
		}
		return trace.String()
	}
	trace1, trace2 := run(), run()
	if trace1 != trace2 {
		i := 0
		for i < len(trace1) && i < len(trace2) && trace1[i] == trace2[i] {
			i++
		}
		lo := i - 120
		if lo < 0 {
			lo = 0
		}
		end := func(s string) string {
			hi := i + 120
			if hi > len(s) {
				hi = len(s)
			}
			return s[lo:hi]
		}
		t.Errorf("pipeline trace diverged at byte %d of %d/%d:\n%q\n--- vs ---\n%q",
			i, len(trace1), len(trace2), end(trace1), end(trace2))
	}
	if len(trace1) == 0 {
		t.Error("trace output is empty")
	}
}

func TestPipelinePrinterAndCSV(t *testing.T) {
	rows := []PipelineRow{{
		Model: "llama3.1:8b-fp16", DisplayName: "L3.1-8B",
		GPUMemGiB: 72, SequentialSec: 10.2, PipelinedSec: 6.5, ImprovementPct: 36.3,
	}}
	var sb strings.Builder
	PrintPipeline(&sb, rows)
	if !strings.Contains(sb.String(), "pipelined") || !strings.Contains(sb.String(), "L3.1-8B") {
		t.Fatalf("printer output unexpected:\n%s", sb.String())
	}
	h, csv := PipelineCSV(rows)
	if !strings.HasPrefix(h, "model,") || len(csv) != 1 {
		t.Fatalf("csv unexpected: %q %v", h, csv)
	}
	if !strings.Contains(csv[0], "llama3.1:8b-fp16") {
		t.Fatalf("csv row unexpected: %q", csv[0])
	}
}
