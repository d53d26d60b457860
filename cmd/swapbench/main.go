// Command swapbench regenerates the paper's tables and figures against
// the simulated substrates and prints the same rows/series the paper
// reports. It is the artifact-evaluation entry point:
//
//	swapbench -exp all
//	swapbench -exp fig5
//	swapbench -exp table1 -csv table1.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"swapservellm/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig1|fig2|fig3|table1|fig5|fig6a|fig6b|headline|ablation-policy|ablation-sleep|ablation-consolidation|ablation-elasticity|ablation-tiering|ablation-compile-cache|pipeline|cluster|slo|ckptstore|protomix|chaos|all")
		seed     = flag.Int64("seed", 42, "workload seed for fig1/fig3/ablations; start seed for -exp chaos")
		seeds    = flag.Int("seeds", 10, "number of seeds the chaos soak sweeps")
		csvDir   = flag.String("csv", "", "also write each experiment's rows as CSV under this directory")
		traceDir = flag.String("trace", "", "write a Chrome trace_event JSON (<exp>.trace.json) of the swap lifecycle under this directory (supported: pipeline)")
	)
	flag.Parse()

	run := func(name string) bool {
		return *exp == "all" || *exp == name
	}
	out := os.Stdout
	any := false
	writeCSV := func(name, header string, rows []string) {
		if *csvDir == "" {
			return
		}
		path := *csvDir + "/" + name + ".csv"
		if err := experiments.WriteCSVFile(path, header, rows); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "swapbench: wrote", path)
	}

	if run("fig1") {
		any = true
		series := experiments.Figure1(*seed)
		experiments.PrintFigure1(out, series)
		h, rows := experiments.Figure1CSV(series)
		writeCSV("fig1", h, rows)
		fmt.Fprintln(out)
	}
	if run("fig2") {
		any = true
		rows, err := experiments.Figure2()
		fail(err)
		experiments.PrintFigure2(out, rows)
		h, csv := experiments.Figure2CSV(rows)
		writeCSV("fig2", h, csv)
		fmt.Fprintln(out)
	}
	if run("fig3") {
		any = true
		res := experiments.Figure3(*seed)
		experiments.PrintFigure3(out, res)
		h, csv := experiments.Figure3CSV(res)
		writeCSV("fig3", h, csv)
		fmt.Fprintln(out)
	}
	if run("table1") {
		any = true
		rows, err := experiments.Table1()
		fail(err)
		experiments.PrintTable1(out, rows)
		h, csv := experiments.Table1CSV(rows)
		writeCSV("table1", h, csv)
		fmt.Fprintln(out)
	}
	if run("fig5") {
		any = true
		rows, err := experiments.Figure5()
		fail(err)
		experiments.PrintFigure5(out, rows)
		h, csv := experiments.Figure5CSV(rows)
		writeCSV("fig5", h, csv)
		fmt.Fprintln(out)
	}
	var fig6a []experiments.Fig6aRow
	var fig6b []experiments.Fig6bRow
	if run("fig6a") || run("headline") {
		var err error
		fig6a, err = experiments.Figure6a()
		fail(err)
	}
	if run("fig6b") || run("headline") {
		var err error
		fig6b, err = experiments.Figure6b()
		fail(err)
	}
	if run("fig6a") {
		any = true
		experiments.PrintFigure6a(out, fig6a)
		h, csv := experiments.Figure6aCSV(fig6a)
		writeCSV("fig6a", h, csv)
		fmt.Fprintln(out)
	}
	if run("fig6b") {
		any = true
		experiments.PrintFigure6b(out, fig6b)
		h, csv := experiments.Figure6bCSV(fig6b)
		writeCSV("fig6b", h, csv)
		fmt.Fprintln(out)
	}
	if run("headline") {
		any = true
		experiments.PrintHeadline(out, experiments.Headline(fig6a, fig6b))
		fmt.Fprintln(out)
	}
	if run("ablation-policy") {
		any = true
		rows, err := experiments.AblationPreemptionPolicy(48, *seed)
		fail(err)
		experiments.PrintPolicyAblation(out, rows)
		fmt.Fprintln(out)
	}
	if run("ablation-sleep") {
		any = true
		rows, err := experiments.AblationSleepMode()
		fail(err)
		experiments.PrintSleepModeAblation(out, rows)
		fmt.Fprintln(out)
	}
	if run("ablation-consolidation") {
		any = true
		experiments.PrintConsolidation(out, experiments.AblationConsolidation())
		fmt.Fprintln(out)
	}
	if run("ablation-elasticity") {
		any = true
		rows, err := experiments.AblationElasticity(*seed)
		fail(err)
		experiments.PrintElasticity(out, rows)
		h, csv := experiments.ElasticityCSV(rows)
		writeCSV("ablation-elasticity", h, csv)
		fmt.Fprintln(out)
	}
	if run("ablation-compile-cache") {
		any = true
		rows, err := experiments.AblationCompileCache()
		fail(err)
		experiments.PrintCompileCache(out, rows)
		fmt.Fprintln(out)
	}
	if run("ablation-tiering") {
		any = true
		rows, err := experiments.AblationSnapshotTiering()
		fail(err)
		experiments.PrintSnapshotTiering(out, rows)
		fmt.Fprintln(out)
	}
	if run("pipeline") {
		any = true
		var rows []experiments.PipelineRow
		var err error
		if *traceDir != "" {
			path := *traceDir + "/pipeline.trace.json"
			f, ferr := os.Create(path)
			fail(ferr)
			rows, err = experiments.AblationPipelinedSwapTraced(f)
			f.Close()
			fail(err)
			fmt.Fprintln(os.Stderr, "swapbench: wrote", path)
		} else {
			rows, err = experiments.AblationPipelinedSwap()
			fail(err)
		}
		experiments.PrintPipeline(out, rows)
		h, csv := experiments.PipelineCSV(rows)
		writeCSV("pipeline", h, csv)
		if err := os.WriteFile("BENCH_pipeline.json", []byte(experiments.PipelineBenchJSON(rows)), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "swapbench: wrote BENCH_pipeline.json")
		fmt.Fprintln(out)
	}
	if run("cluster") {
		any = true
		rows, err := experiments.AblationClusterPlacement(*seed)
		fail(err)
		experiments.PrintClusterPlacement(out, rows)
		h, csv := experiments.ClusterPlacementCSV(rows)
		writeCSV("cluster", h, csv)
		fmt.Fprintln(out)
	}
	if run("slo") {
		any = true
		res := experiments.SLOAblation(*seed)
		experiments.PrintSLO(out, res)
		h, csv := experiments.SLOCSV(res)
		writeCSV("slo", h, csv)
		if err := os.WriteFile("BENCH_slo.json", []byte(experiments.SLOBenchJSON(res)), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "swapbench: wrote BENCH_slo.json")
		fmt.Fprintln(out)
	}
	if run("ckptstore") {
		any = true
		res, err := experiments.AblationCheckpointStore()
		fail(err)
		experiments.PrintCkptStore(out, res)
		h, csv := experiments.CkptStoreCSV(res)
		writeCSV("ckptstore", h, csv)
		if err := os.WriteFile("BENCH_ckptstore.json", []byte(experiments.CkptStoreBenchJSON(res)), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "swapbench: wrote BENCH_ckptstore.json")
		fmt.Fprintln(out)
	}
	if run("protomix") {
		any = true
		res, err := experiments.AblationProtocolMix(*seed)
		fail(err)
		experiments.PrintProtomix(out, res)
		h, csv := experiments.ProtomixCSV(res)
		writeCSV("protomix", h, csv)
		if err := os.WriteFile("BENCH_protomix.json", []byte(experiments.ProtomixBenchJSON(res)), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "swapbench: wrote BENCH_protomix.json")
		fmt.Fprintln(out)
	}
	if run("chaos") {
		any = true
		rows, err := experiments.ChaosSweep(*seed, *seeds)
		fail(err)
		clusterRows, err := experiments.ChaosClusterSweep(*seed, *seeds)
		fail(err)
		rows = append(rows, clusterRows...)
		schedRows, err := experiments.ChaosSchedSweep(*seed, *seeds)
		fail(err)
		rows = append(rows, schedRows...)
		ckptRows, err := experiments.ChaosCkptStoreSweep(*seed, *seeds)
		fail(err)
		rows = append(rows, ckptRows...)
		experiments.PrintChaos(out, rows)
		h, csv := experiments.ChaosCSV(rows)
		writeCSV("chaos", h, csv)
		fmt.Fprintln(out)
	}
	if !any {
		fmt.Fprintf(os.Stderr, "swapbench: unknown experiment %q\n", *exp)
		fmt.Fprintf(os.Stderr, "known: fig1 fig2 fig3 table1 fig5 fig6a fig6b headline %s all\n",
			strings.Join([]string{"ablation-policy", "ablation-sleep", "ablation-consolidation", "ablation-elasticity", "ablation-tiering", "ablation-compile-cache", "pipeline", "cluster", "slo", "ckptstore", "protomix", "chaos"}, " "))
		os.Exit(2)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "swapbench:", err)
		os.Exit(1)
	}
}
