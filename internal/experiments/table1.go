package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"swapservellm/internal/engine"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
)

// Table1Row is one row of Table 1: the vLLM initialization breakdown for
// a model on the H100 testbed.
type Table1Row struct {
	Model       string
	DisplayName string
	TotalSec    float64
	LoadSec     float64
	CompileSec  float64
	CGSec       float64
	// MeasuredTotalSec is the end-to-end Init duration observed on the
	// simulation clock (validates that the engine really slept the
	// phases).
	MeasuredTotalSec float64
}

// Table1 reproduces Table 1: it cold-starts a vLLM engine for each of the
// ten models on an H100 rig and reports the phase breakdown.
func Table1() ([]Table1Row, error) {
	r := newRig(perfmodel.H100())
	defer r.done()
	cat := models.Default()
	var rows []Table1Row
	for i, name := range perfmodel.Table1Models() {
		m := cat.MustLookup(name)
		r.stage(m, perfmodel.TierDisk)
		var bd perfmodel.InitBreakdown
		var samples []time.Duration
		for rep := 0; rep < Reps; rep++ {
			eng, err := engine.NewVLLM(r.engineConfig(fmt.Sprintf("t1-%d-%d", i, rep), m, perfmodel.TierDisk))
			if err != nil {
				return nil, err
			}
			t0 := r.clock.Now()
			bd, err = eng.Init(context.Background())
			if err != nil {
				return nil, fmt.Errorf("init %s: %w", name, err)
			}
			samples = append(samples, r.clock.Since(t0))
			eng.Shutdown()
		}
		rows = append(rows, Table1Row{
			Model:            name,
			DisplayName:      m.DisplayName,
			TotalSec:         bd.Total().Seconds(),
			LoadSec:          bd.Load.Seconds(),
			CompileSec:       bd.Compile.Seconds(),
			CGSec:            bd.CUDAGraph.Seconds(),
			MeasuredTotalSec: median(samples).Seconds(),
		})
	}
	return rows, nil
}

// PrintTable1 renders the rows in the paper's column layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fprintf(w, "Table 1: vLLM initialization breakdown (H100, seconds)\n")
	fprintf(w, "%-10s %9s %8s %11s %7s %12s\n", "Model", "Total(s)", "Load(s)", "Compile(s)", "CG(s)", "Measured(s)")
	for _, r := range rows {
		fprintf(w, "%-10s %9.2f %8.2f %11.2f %7.2f %12.2f\n",
			r.DisplayName, r.TotalSec, r.LoadSec, r.CompileSec, r.CGSec, r.MeasuredTotalSec)
	}
}
