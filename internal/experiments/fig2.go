package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"swapservellm/internal/container"
	"swapservellm/internal/engine"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
)

// Fig2Row is one bar of Figure 2: end-to-end cold-start latency
// (container startup + engine initialization) for an engine/model pair on
// the H100 testbed.
type Fig2Row struct {
	Engine       perfmodel.EngineKind
	Model        string
	DisplayName  string
	ColdStartSec float64
}

// Figure2Models is the model set swept in the cold-start figure.
var Figure2Models = []string{
	"llama3.2:1b-fp16",
	"llama3.2:3b-fp16",
	"llama3.1:8b-fp16",
	"deepseek-r1:7b-fp16",
	"deepseek-r1:14b-fp16",
}

// Figure2Engines is the engine set of the figure, ordered as in the
// paper's discussion.
var Figure2Engines = []perfmodel.EngineKind{
	perfmodel.EngineOllama,
	perfmodel.EngineSGLang,
	perfmodel.EngineVLLM,
	perfmodel.EngineTRTLLM,
}

// Figure2 reproduces Figure 2: for every engine × model it creates a
// container, starts it, and measures until the engine is ready —
// the full cold-start path a serverless scale-out pays.
func Figure2() ([]Fig2Row, error) {
	r := newRig(perfmodel.H100())
	defer r.done()
	rt := container.NewRuntime(r.clock, r.tb, r.freezer, r.driver)
	cat := models.Default()

	var rows []Fig2Row
	seq := 0
	for _, kind := range Figure2Engines {
		for _, name := range Figure2Models {
			m := cat.MustLookup(name)
			r.stage(m, perfmodel.TierDisk)
			// Median of Reps cold starts: robust against wall-clock
			// scheduling hiccups magnified by the simulation scale.
			var samples []time.Duration
			for rep := 0; rep < Reps; rep++ {
				seq++
				spec := container.Spec{
					Name:  fmt.Sprintf("fig2-%d", seq),
					Image: string(kind),
					Engine: func(owner string) (engine.Engine, error) {
						return engine.New(kind, r.engineConfig(owner, m, perfmodel.TierDisk))
					},
				}
				t0 := r.clock.Now()
				ctr, err := rt.Create(context.Background(), spec)
				if err != nil {
					return nil, err
				}
				if err := rt.Start(context.Background(), ctr); err != nil {
					return nil, err
				}
				if err := ctr.WaitReady(context.Background()); err != nil {
					return nil, fmt.Errorf("%s/%s: %w", kind, name, err)
				}
				samples = append(samples, r.clock.Since(t0))
				if err := rt.Stop(context.Background(), ctr); err != nil {
					return nil, err
				}
				rt.Remove(ctr)
			}
			rows = append(rows, Fig2Row{
				Engine:       kind,
				Model:        name,
				DisplayName:  m.DisplayName,
				ColdStartSec: median(samples).Seconds(),
			})
		}
	}
	return rows, nil
}

// median returns the middle sample (sorting a copy).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}

// PrintFigure2 renders the cold-start matrix.
func PrintFigure2(w io.Writer, rows []Fig2Row) {
	fprintf(w, "Figure 2: cold-start latency incl. container startup (H100, seconds)\n")
	fprintf(w, "%-10s", "Model")
	for _, e := range Figure2Engines {
		fprintf(w, " %10s", e)
	}
	fprintf(w, "\n")
	for _, name := range Figure2Models {
		var display string
		cells := make(map[perfmodel.EngineKind]float64)
		for _, r := range rows {
			if r.Model == name {
				cells[r.Engine] = r.ColdStartSec
				display = r.DisplayName
			}
		}
		fprintf(w, "%-10s", display)
		for _, e := range Figure2Engines {
			fprintf(w, " %10.2f", cells[e])
		}
		fprintf(w, "\n")
	}
}
