package invariant

import (
	"context"
	"strings"
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/gpu"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

const gib = int64(1) << 30

func newDriver(t *testing.T) (*cudackpt.Driver, *gpu.Topology) {
	t.Helper()
	clock := simclock.NewVirtual(time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC))
	gate := clock.Gate()
	gate.Enter()
	t.Cleanup(gate.Exit)
	topo := gpu.NewTopology(perfmodel.GPUH100, 1, 80*gib)
	return cudackpt.NewDriver(clock, perfmodel.H100(), 0), topo
}

func TestCheckDriverCleanAndDirty(t *testing.T) {
	d, topo := newDriver(t)
	dev, _ := topo.Device(0)
	dev.Alloc("p", 10*gib)
	d.Register("p", dev, perfmodel.EngineVLLM, gib)

	var r Report
	CheckDriver(&r, d, topo)
	if !r.Ok() {
		t.Fatalf("clean running state flagged: %s", r.String())
	}

	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	r = Report{}
	CheckDriver(&r, d, topo)
	if !r.Ok() {
		t.Fatalf("clean checkpointed state flagged: %s", r.String())
	}

	// Corrupt one side of the reconciliation: a checkpointed process
	// that still holds device memory must be flagged.
	dev.Alloc("p", gib)
	r = Report{}
	CheckDriver(&r, d, topo)
	if r.Ok() {
		t.Fatal("checkpointed process holding device memory not flagged")
	}
	if !strings.Contains(r.String(), "driver.accounting") {
		t.Fatalf("unexpected violations: %s", r.String())
	}
}

func TestCheckCkptTrace(t *testing.T) {
	tr := chaos.NewTrace()
	tr.Record("ckpt", "p", "running", "locked")
	tr.Record("ckpt", "p", "locked", "checkpointed")
	tr.Record("ckpt", "p", "checkpointed", "locked")
	tr.Record("ckpt", "p", "locked", "running")
	var r Report
	CheckCkptTrace(&r, tr)
	if !r.Ok() {
		t.Fatalf("legal cycle flagged: %s", r.String())
	}

	// A double-checkpoint breaks continuity.
	tr.Record("ckpt", "q", "running", "locked")
	tr.Record("ckpt", "q", "locked", "checkpointed")
	tr.Record("ckpt", "q", "locked", "checkpointed")
	r = Report{}
	CheckCkptTrace(&r, tr)
	if r.Ok() {
		t.Fatal("double checkpoint not flagged")
	}

	// An illegal edge (running -> checkpointed) is flagged even when
	// continuity holds.
	tr2 := chaos.NewTrace()
	tr2.Record("ckpt", "x", "running", "checkpointed")
	r = Report{}
	CheckCkptTrace(&r, tr2)
	if r.Ok() {
		t.Fatal("illegal edge not flagged")
	}
}

func TestCheckNodeTrace(t *testing.T) {
	tr := chaos.NewTrace()
	tr.Record("node", "n1", "joining", "healthy")
	tr.Record("node", "n1", "healthy", "down")
	tr.Record("node", "n1", "down", "healthy")
	tr.Record("node", "n1", "healthy", "draining")
	tr.Record("node", "n1", "draining", "healthy")
	var r Report
	CheckNodeTrace(&r, tr)
	if !r.Ok() {
		t.Fatalf("legal node lifecycle flagged: %s", r.String())
	}

	// down -> draining is not a legal edge.
	tr.Record("node", "n2", "joining", "down")
	tr.Record("node", "n2", "down", "draining")
	r = Report{}
	CheckNodeTrace(&r, tr)
	if r.Ok() {
		t.Fatal("down -> draining not flagged")
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Accept("a")
	l.Accept("b")
	l.Accept("c")
	l.Finish("a")
	l.Finish("b")
	l.Finish("b") // double termination
	l.Finish("ghost")
	var r Report
	l.Check(&r)
	if len(r.Violations) != 3 {
		t.Fatalf("violations = %d (%s), want 3 (b twice, c never, ghost orphan)", len(r.Violations), r.String())
	}
}

func TestCheckDriverMidTransferConservation(t *testing.T) {
	// The conservation rule must hold at every chunk boundary of an
	// in-flight checkpoint and restore: device bytes + image bytes ==
	// transfer goal, with the host pledge equal to the un-transferred
	// remainder. The check runs from the chunk hook, i.e. genuinely
	// mid-transfer.
	d, topo := newDriver(t)
	dev, _ := topo.Device(0)
	dev.Alloc("p", 10*gib)
	d.Register("p", dev, perfmodel.EngineVLLM, gib)

	boundaries := 0
	var failures []string
	d.OnChunk(func(ev cudackpt.ChunkEvent) {
		boundaries++
		var r Report
		CheckDriver(&r, d, topo)
		if !r.Ok() {
			failures = append(failures, r.String())
		}
	})

	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(context.Background(), "p", nil); err != nil {
		t.Fatal(err)
	}
	if boundaries < 20 {
		t.Fatalf("expected >= 20 chunk boundaries for a 10 GiB round trip, got %d", boundaries)
	}
	if len(failures) > 0 {
		t.Fatalf("invariants violated mid-transfer:\n%s", strings.Join(failures, "\n"))
	}
}
