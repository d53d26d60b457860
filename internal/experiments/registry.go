package experiments

import (
	"fmt"
	"io"
)

// Env is what an experiment run depends on besides its code.
type Env struct {
	// Seed is the workload seed, and the first seed the chaos soaks
	// sweep.
	Seed int64
	// ChaosSeeds is how many consecutive seeds each chaos soak sweeps.
	ChaosSeeds int
	// Trace, when non-nil, receives a Traced experiment's Chrome
	// trace_event JSON of the swap lifecycle.
	Trace io.Writer
}

// Output is one experiment's rendered result.
type Output struct {
	// Print writes the table swapbench prints.
	Print func(io.Writer)
	// CSVHeader and CSVRows are the rows -csv writes; an experiment
	// without CSV output leaves both empty.
	CSVHeader string
	CSVRows   []string
	// BenchFile names the committed BENCH_*.json artifact BenchBody
	// regenerates; empty when the experiment has none.
	BenchFile string
	BenchBody string
}

// Experiment is one entry of the registry: a named, seeded run that
// renders the table of one paper element or ablation.
type Experiment struct {
	Name string
	// Traced reports that the run writes Env.Trace when it is set.
	Traced bool
	Run    func(Env) (Output, error)
}

// All is every experiment, in the order swapbench -exp all runs them.
// swapbench and the golden test both drive it, so the list, the
// renderers and the committed goldens cannot drift apart.
var All = []Experiment{
	entry("fig1", func(e Env) ([]Fig1Series, error) { return Figure1(e.Seed), nil }, PrintFigure1, Figure1CSV, nil),
	entry("fig2", func(Env) ([]Fig2Row, error) { return Figure2() }, PrintFigure2, Figure2CSV, nil),
	entry("fig3", func(e Env) (Fig3Result, error) { return Figure3(e.Seed), nil }, PrintFigure3, Figure3CSV, nil),
	entry("table1", func(Env) ([]Table1Row, error) { return Table1() }, PrintTable1, Table1CSV, nil),
	entry("fig5", func(Env) ([]Fig5Row, error) { return Figure5() }, PrintFigure5, Figure5CSV, nil),
	entry("fig6a", func(Env) ([]Fig6aRow, error) { return Figure6a() }, PrintFigure6a, Figure6aCSV, nil),
	entry("fig6b", func(Env) ([]Fig6bRow, error) { return Figure6b() }, PrintFigure6b, Figure6bCSV, nil),
	entry("headline", headline, PrintHeadline, nil, nil),
	entry("ablation-policy", func(e Env) ([]PolicyAblationRow, error) { return AblationPreemptionPolicy(48, e.Seed) },
		PrintPolicyAblation, nil, nil),
	entry("ablation-sleep", func(Env) ([]SleepModeAblationRow, error) { return AblationSleepMode() },
		PrintSleepModeAblation, nil, nil),
	entry("ablation-consolidation", func(Env) ([]ConsolidationRow, error) { return AblationConsolidation(), nil },
		PrintConsolidation, nil, nil),
	entry("ablation-elasticity", func(e Env) ([]ElasticityRow, error) { return AblationElasticity(e.Seed) },
		PrintElasticity, ElasticityCSV, nil),
	entry("ablation-compile-cache", func(Env) ([]CompileCacheRow, error) { return AblationCompileCache() },
		PrintCompileCache, nil, nil),
	entry("ablation-tiering", func(Env) ([]TieringRow, error) { return AblationSnapshotTiering() },
		PrintSnapshotTiering, nil, nil),
	traced(entry("pipeline", func(e Env) ([]PipelineRow, error) { return AblationPipelinedSwapTraced(e.Trace) },
		PrintPipeline, PipelineCSV, PipelineBenchJSON)),
	entry("cluster", func(e Env) ([]ClusterPlacementRow, error) { return AblationClusterPlacement(e.Seed) },
		PrintClusterPlacement, ClusterPlacementCSV, nil),
	entry("slo", func(e Env) (*SLOResult, error) { return SLOAblation(e.Seed), nil }, PrintSLO, SLOCSV, SLOBenchJSON),
	entry("ckptstore", func(Env) (*CkptStoreResult, error) { return AblationCheckpointStore() },
		PrintCkptStore, CkptStoreCSV, CkptStoreBenchJSON),
	entry("protomix", func(e Env) (*ProtomixResult, error) { return AblationProtocolMix(e.Seed) },
		PrintProtomix, ProtomixCSV, ProtomixBenchJSON),
	entry("chaos", chaosSweep, PrintChaos, ChaosCSV, nil),
}

// entry builds a registry entry from a measurement and its renderers.
// csv and bench may be nil; an experiment with a bench renderer owns
// the artifact BENCH_<name>.json.
func entry[R any](name string, run func(Env) (R, error), print func(io.Writer, R),
	csv func(R) (string, []string), bench func(R) string) Experiment {
	return Experiment{Name: name, Run: func(e Env) (Output, error) {
		res, err := run(e)
		if err != nil {
			return Output{}, err
		}
		out := Output{Print: func(w io.Writer) { print(w, res) }}
		if csv != nil {
			out.CSVHeader, out.CSVRows = csv(res)
		}
		if bench != nil {
			out.BenchFile, out.BenchBody = "BENCH_"+name+".json", bench(res)
		}
		return out, nil
	}}
}

// traced marks x as writing Env.Trace.
func traced(x Experiment) Experiment {
	x.Traced = true
	return x
}

// headline derives the headline claims from its own Figure 6 runs.
func headline(Env) (HeadlineResult, error) {
	a, err := Figure6a()
	if err != nil {
		return HeadlineResult{}, err
	}
	b, err := Figure6b()
	if err != nil {
		return HeadlineResult{}, err
	}
	return Headline(a, b), nil
}

// chaosSweep runs every soak — node, cluster, scheduling, checkpoint
// store — over the seeds [e.Seed, e.Seed+e.ChaosSeeds).
func chaosSweep(e Env) ([]ChaosRow, error) {
	var rows []ChaosRow
	for _, soak := range []func(int64) (ChaosRow, error){ChaosSoak, ChaosClusterSoak, ChaosSchedSoak, ChaosCkptStoreSoak} {
		for seed := e.Seed; seed < e.Seed+int64(e.ChaosSeeds); seed++ {
			row, err := soak(seed)
			if err != nil {
				return nil, fmt.Errorf("seed %d: %w", seed, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
