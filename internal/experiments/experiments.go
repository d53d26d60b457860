// Package experiments regenerates every table and figure from the
// paper's evaluation (§5) against the simulated substrates: each
// experiment drives the real code paths — container runtime, engines,
// checkpoint driver, and the full SwapServeLLM server — on a virtual
// discrete-event clock and reports the measured simulated latencies.
// Time jumps straight to the next deadline whenever every participating
// goroutine is idle, so the suite spends no wall time sleeping and the
// direct-measurement experiments are byte-identical run to run.
//
// All is the registry of every experiment; swapbench runs it and
// TestExperimentGoldens pins each entry's output. The per-experiment
// index in DESIGN.md maps each function here to the paper element it
// reproduces; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"swapservellm/internal/cgroup"
	"swapservellm/internal/cluster"
	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/engine"
	"swapservellm/internal/gpu"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
	"swapservellm/internal/storage"
)

// epoch is the fixed simulated-time origin for every experiment.
var epoch = time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)

// Reps is the number of repetitions per measured configuration; the
// paper reports means over repeated runs.
const Reps = 3

// rig bundles the substrates for direct-measurement experiments. The
// rig runs on a Virtual clock with the calling goroutine registered as
// a participant; callers must defer r.done().
type rig struct {
	clock   *simclock.Virtual
	gate    *simclock.Gate
	tb      perfmodel.Testbed
	device  *gpu.Device
	store   *storage.ModelStore
	freezer *cgroup.Freezer
	driver  *cudackpt.Driver
}

// newRig builds a single-GPU rig on the given testbed, on its own
// Virtual clock.
func newRig(tb perfmodel.Testbed) *rig {
	clock := simclock.NewVirtual(epoch)
	gate := simclock.GateFor(clock)
	gate.Enter() //swaplint:ignore gatecheck registration spans functions: every caller pairs newRig with rig.done (Exit)
	return &rig{
		clock:   clock,
		gate:    gate,
		tb:      tb,
		device:  gpu.NewDevice(0, tb.GPU, tb.GPUMemBytes),
		store:   storage.NewModelStore(clock, tb),
		freezer: cgroup.NewFreezer(),
		driver:  cudackpt.NewDriver(clock, tb, 0),
	}
}

// done deregisters the calling goroutine from the rig's clock.
func (r *rig) done() { r.gate.Exit() }

// virtualClock builds the discrete-event clock server-driven experiments
// run on, registering the calling goroutine as a participant. Callers
// must defer gate.Exit().
func virtualClock() (*simclock.Virtual, *simclock.Gate) {
	clock := simclock.NewVirtual(epoch)
	gate := simclock.GateFor(clock)
	gate.Enter() //swaplint:ignore gatecheck registration spans functions: callers defer gate.Exit per the doc comment
	return clock, gate
}

// startServer builds and starts a live server for cfg, the rig of
// every server-driven trial. Unless opts.Clock is set, the server runs
// on its own Virtual clock with the calling goroutine registered.
// Callers defer stop, which shuts the server down and then deregisters
// the caller.
func startServer(cfg config.Config, opts core.Options) (s *core.Server, stop func(), err error) {
	exit := func() {}
	if opts.Clock == nil {
		clock, gate := virtualClock()
		opts.Clock, exit = clock, gate.Exit
	}
	if s, err = core.New(cfg, opts); err != nil {
		exit()
		return nil, nil, err
	}
	stop = func() { s.Shutdown(); exit() }
	if err := s.Start(context.Background()); err != nil {
		stop()
		return nil, nil, err
	}
	return s, stop, nil
}

// startCluster is startServer for a cluster: it builds and starts one
// for cfg on its own Virtual clock, with the calling goroutine
// registered. Callers defer stop.
func startCluster(cfg config.Cluster, opts ...cluster.Option) (c *cluster.Cluster, stop func(), err error) {
	clock, gate := virtualClock()
	if c, err = cluster.New(cfg, append(opts, cluster.WithClock(clock))...); err != nil {
		gate.Exit()
		return nil, nil, err
	}
	stop = func() { c.Shutdown(); gate.Exit() }
	if err := c.Start(context.Background()); err != nil {
		stop()
		return nil, nil, err
	}
	return c, stop, nil
}

// stage places a model's weights on the given tier, replacing any
// existing blob.
func (r *rig) stage(m models.Model, tier perfmodel.StorageTier) {
	r.store.Delete(engine.WeightBlobName(m))
	if err := r.store.Put(engine.WeightBlobName(m), m.WeightBytes(), tier); err != nil {
		panic(err)
	}
}

// engineConfig builds a config for a fresh engine instance.
func (r *rig) engineConfig(owner string, m models.Model, tier perfmodel.StorageTier) engine.Config {
	return engine.Config{
		Owner:   owner,
		Model:   m,
		Testbed: r.tb,
		Clock:   r.clock,
		Device:  r.device,
		Store:   r.store,
		Tier:    tier,
	}
}

// mean returns the average of a sample slice in seconds.
func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return (sum / time.Duration(len(ds))).Seconds()
}

// gib converts bytes to GiB.
func gib(b int64) float64 { return float64(b) / float64(1<<30) }

// jsonList renders items as the rows of a BENCH artifact's JSON array:
// one object per line at the artifacts' indentation, comma-separated.
func jsonList[T any](items []T, object func(T) string) string {
	var b strings.Builder
	for i, it := range items {
		b.WriteString("    " + object(it))
		if i < len(items)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fprintf writes a formatted row, ignoring errors (experiment output is
// best-effort console text).
func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
