// Command swapbench regenerates the paper's tables and figures against
// the simulated substrates and prints the same rows/series the paper
// reports. It is the artifact-evaluation entry point:
//
//	swapbench -exp all
//	swapbench -exp fig5
//	swapbench -exp table1 -csv table1.csv
//
// Every experiment comes from the experiments.All registry, whose
// printed output the experiments package pins with golden files.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"swapservellm/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes swapbench with the given arguments and returns its exit
// status: 0 on success, 1 when an experiment fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var names, traced []string
	for _, x := range experiments.All {
		names = append(names, x.Name)
		if x.Traced {
			traced = append(traced, x.Name)
		}
	}
	fs := flag.NewFlagSet("swapbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
		seed     = fs.Int64("seed", 42, "workload seed for fig1/fig3/ablations; start seed for -exp chaos")
		seeds    = fs.Int("seeds", 10, "number of seeds the chaos soak sweeps")
		csvDir   = fs.String("csv", "", "also write each experiment's rows as CSV under this directory")
		traceDir = fs.String("trace", "", "write a Chrome trace_event JSON (<exp>.trace.json) of the swap lifecycle under this directory (supported: "+strings.Join(traced, ", ")+")")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	env := experiments.Env{Seed: *seed, ChaosSeeds: *seeds}
	known := false
	for _, x := range experiments.All {
		if *exp != "all" && *exp != x.Name {
			continue
		}
		known = true
		if err := runOne(x, env, *csvDir, *traceDir, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "swapbench:", err)
			return 1
		}
	}
	if !known {
		fmt.Fprintf(stderr, "swapbench: unknown experiment %q\n", *exp)
		fmt.Fprintf(stderr, "known: %s all\n", strings.Join(names, " "))
		return 2
	}
	return 0
}

// runOne runs one experiment, prints its table and a blank separator to
// stdout, and writes its trace, CSV and BENCH artifacts, naming each on
// stderr.
func runOne(x experiments.Experiment, env experiments.Env, csvDir, traceDir string, stdout, stderr io.Writer) error {
	var tracePath string
	if traceDir != "" && x.Traced {
		tracePath = traceDir + "/" + x.Name + ".trace.json"
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		env.Trace = f
	}
	out, err := x.Run(env)
	if err != nil {
		return err
	}
	if tracePath != "" {
		fmt.Fprintln(stderr, "swapbench: wrote", tracePath)
	}
	out.Print(stdout)
	if csvDir != "" && out.CSVHeader != "" {
		path := csvDir + "/" + x.Name + ".csv"
		if err := experiments.WriteCSVFile(path, out.CSVHeader, out.CSVRows); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "swapbench: wrote", path)
	}
	if out.BenchFile != "" {
		if err := os.WriteFile(out.BenchFile, []byte(out.BenchBody), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "swapbench: wrote", out.BenchFile)
	}
	fmt.Fprintln(stdout)
	return nil
}
