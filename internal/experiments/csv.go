package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// WriteCSVFile writes the header and rows (already formatted as
// comma-separated lines) to path, creating parent directories — the
// artifact's "extract measurements into CSV" step.
func WriteCSVFile(path, header string, rows []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString(header + "\n")
	for _, r := range rows {
		b.WriteString(r + "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o666)
}

// Table1CSV renders Table 1 rows as CSV lines.
func Table1CSV(rows []Table1Row) (header string, out []string) {
	header = "model,display,total_s,load_s,compile_s,cuda_graphs_s,measured_total_s"
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%s,%.2f,%.2f,%.2f,%.2f,%.2f",
			r.Model, r.DisplayName, r.TotalSec, r.LoadSec, r.CompileSec, r.CGSec, r.MeasuredTotalSec))
	}
	return header, out
}

// Figure2CSV renders Figure 2 rows as CSV lines.
func Figure2CSV(rows []Fig2Row) (header string, out []string) {
	header = "engine,model,display,cold_start_s"
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%s,%s,%.2f", r.Engine, r.Model, r.DisplayName, r.ColdStartSec))
	}
	return header, out
}

// Figure5CSV renders Figure 5 rows as CSV lines.
func Figure5CSV(rows []Fig5Row) (header string, out []string) {
	header = "model,display,weights_gib,disk_s,memory_s,snapshot_s"
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%s,%.2f,%.2f,%.2f,%.2f",
			r.Model, r.DisplayName, r.WeightsGiB, r.DiskSec, r.MemorySec, r.SnapshotSec))
	}
	return header, out
}

// Figure6aCSV renders Figure 6a rows as CSV lines.
func Figure6aCSV(rows []Fig6aRow) (header string, out []string) {
	header = "model,display,gpu_mem_gib,swap_in_s,cold_start_s"
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%s,%.1f,%.2f,%.2f",
			r.Model, r.DisplayName, r.GPUMemGiB, r.SwapInSec, r.ColdStartSec))
	}
	return header, out
}

// Figure6bCSV renders Figure 6b rows as CSV lines.
func Figure6bCSV(rows []Fig6bRow) (header string, out []string) {
	header = "model,display,gpu_mem_gib,ollama_load_s,swap_in_s"
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%s,%.1f,%.2f,%.2f",
			r.Model, r.DisplayName, r.GPUMemGiB, r.OllamaLoadSec, r.SwapInSec))
	}
	return header, out
}

// Figure1CSV renders the weekly token-volume series as CSV lines.
func Figure1CSV(series []Fig1Series) (header string, out []string) {
	header = "class,hour_start,requests,input_tokens,output_tokens"
	for _, s := range series {
		for _, b := range s.Buckets {
			out = append(out, fmt.Sprintf("%s,%s,%d,%d,%d",
				s.Class, b.Start.Format("2006-01-02T15:04:05Z"), b.Requests, b.InputTokens, b.OutputTokens))
		}
	}
	return header, out
}

// Figure3CSV renders the cluster utilization series as CSV lines.
func Figure3CSV(r Fig3Result) (header string, out []string) {
	header = "timestamp,utilization,mem_bytes"
	for _, s := range r.Samples {
		out = append(out, fmt.Sprintf("%s,%.4f,%d",
			s.T.Format("2006-01-02T15:04:05Z"), s.Utilization, s.MemBytes))
	}
	return header, out
}

// ElasticityCSV renders the elasticity ablation as CSV lines.
func ElasticityCSV(rows []ElasticityRow) (header string, out []string) {
	header = "strategy,mean_s,p99_s,mem_gib_s,swap_ins,idle_reaps,prefetches"
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%.2f,%.2f,%.0f,%d,%.0f,%.0f",
			r.Strategy, r.MeanSec, r.P99Sec, r.MemGiBSec, r.SwapIns, r.IdleReaps, r.Prefetches))
	}
	return header, out
}
