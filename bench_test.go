// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5) and every ablation: one sub-benchmark per entry of
// experiments.All, run end to end against the simulated substrates at
// the environment swapbench, the stdout goldens and EXPERIMENTS.md use
// (seed 42, ten chaos seeds). Run with -v to print each table.
//
//	go test -bench=. -benchmem -run='^$'
//	go test -v -bench='Experiments/fig6a$' -run='^$'   # Figure 6a's table
package swapservellm

import (
	"os"
	"testing"
	"time"

	"swapservellm/internal/experiments"
	"swapservellm/internal/workload"
)

// BenchmarkExperiments runs each registered experiment as a
// sub-benchmark named after it.
func BenchmarkExperiments(b *testing.B) {
	env := experiments.Env{Seed: 42, ChaosSeeds: 10}
	for _, e := range experiments.All {
		b.Run(e.Name, func(b *testing.B) {
			var out experiments.Output
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = e.Run(env); err != nil {
					b.Fatal(err)
				}
			}
			if testing.Verbose() {
				out.Print(os.Stdout)
			}
		})
	}
}

// BenchmarkWorkloadGeneration measures the arrival-trace generator
// itself (a day of bursty coding traffic).
func BenchmarkWorkloadGeneration(b *testing.B) {
	g := workload.NewGenerator(1)
	start := time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		reqs := g.Arrivals(workload.ClassCoding, "m", start, start.AddDate(0, 0, 1), 600, 2)
		if len(reqs) == 0 {
			b.Fatal("no arrivals")
		}
	}
}
