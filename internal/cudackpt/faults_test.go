package cudackpt

import (
	"context"
	"errors"
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/perfmodel"
)

func TestChaosFaultLeavesStateIntact(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	dev.Alloc("p", 10*gib)
	d.Register("p", dev, perfmodel.EngineVLLM, gib)

	// Lock fault: process stays Running, device allocation untouched.
	d.SetChaos(chaos.FailNext(chaos.SiteCkptLock, 1))
	if err := d.Lock(context.Background(), "p"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Lock = %v, want injected", err)
	}
	if s, _ := d.State("p"); s != StateRunning {
		t.Fatalf("state after lock fault = %v", s)
	}

	// Checkpoint fault: stays Locked, no host usage charged.
	d.SetChaos(chaos.FailNext(chaos.SiteCkptCheckpoint, 1))
	if err := d.Lock(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(context.Background(), "p"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Checkpoint = %v, want injected", err)
	}
	if s, _ := d.State("p"); s != StateLocked {
		t.Fatalf("state after checkpoint fault = %v", s)
	}
	if d.HostUsed() != 0 {
		t.Fatalf("host usage leaked: %d", d.HostUsed())
	}
	if dev.OwnerUsage("p") != 10*gib {
		t.Fatalf("device allocation lost: %d", dev.OwnerUsage("p"))
	}

	// Unlock fault: stays Locked; once the fault clears, unlock works.
	d.SetChaos(chaos.FailNext(chaos.SiteCkptUnlock, 1))
	if err := d.Unlock(context.Background(), "p"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Unlock = %v, want injected", err)
	}
	if s, _ := d.State("p"); s != StateLocked {
		t.Fatalf("state after unlock fault = %v", s)
	}
	if err := d.Unlock(context.Background(), "p"); err != nil {
		t.Fatalf("Unlock after fault cleared: %v", err)
	}

	// Restore fault: image and Checkpointed state survive.
	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	d.SetChaos(chaos.FailNext(chaos.SiteCkptRestore, 1))
	if err := d.Restore(context.Background(), "p", nil); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Restore = %v, want injected", err)
	}
	if s, _ := d.State("p"); s != StateCheckpointed {
		t.Fatalf("state after restore fault = %v", s)
	}
	if img, _ := d.ImageBytes("p"); img != 10*gib {
		t.Fatalf("image lost after restore fault: %d", img)
	}
	if err := d.Resume(context.Background(), "p", nil); err != nil {
		t.Fatalf("Resume after fault cleared: %v", err)
	}
}

// TestSuspendRetriesUnlockRollback: a one-shot unlock fault during the
// Suspend rollback must not wedge the process in Locked — the bounded
// retry clears it.
func TestSuspendRetriesUnlockRollback(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	dev.Alloc("p", 4*gib)
	d.Register("p", dev, perfmodel.EngineVLLM, gib)
	d.SetChaos(chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Site: chaos.SiteCkptCheckpoint, P: 1, Times: 1},
		{Site: chaos.SiteCkptUnlock, P: 1, Times: 1},
	}}))
	if _, err := d.Suspend(context.Background(), "p"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Suspend = %v, want injected", err)
	}
	if s, _ := d.State("p"); s != StateRunning {
		t.Fatalf("state after rolled-back suspend = %v", s)
	}
}

// TestPCIeDelayStretchesTransfers: an injected PCIe latency makes the
// same-size suspend take longer in simulated time.
func TestPCIeDelayStretchesTransfers(t *testing.T) {
	d, dev, clock := newDriver(t, 0)
	dev.Alloc("p", 8*gib)
	d.Register("p", dev, perfmodel.EngineVLLM, gib)

	t0 := clock.Now()
	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(context.Background(), "p", nil); err != nil {
		t.Fatal(err)
	}
	base := clock.Since(t0)

	const extra = 30 * time.Second
	d.SetChaos(chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Site: chaos.SiteCkptPCIe, Delay: extra},
	}}))
	t1 := clock.Now()
	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(context.Background(), "p", nil); err != nil {
		t.Fatal(err)
	}
	slow := clock.Since(t1)
	if slow < base+extra-time.Second {
		t.Fatalf("degraded cycle %v not slower than baseline %v by ~%v", slow, base, extra)
	}
}

// TestTraceRecordsTransitions: the audit trace sees every successful
// transition of a full cycle, in order, and nothing for faulted ops.
func TestTraceRecordsTransitions(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	dev.Alloc("p", gib)
	d.Register("p", dev, perfmodel.EngineVLLM, gib)
	tr := chaos.NewTrace()
	d.SetTrace(tr)

	d.SetChaos(chaos.FailNext(chaos.SiteCkptLock, 1))
	d.Lock(context.Background(), "p") // faulted: no event
	d.SetChaos(nil)
	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(context.Background(), "p", nil); err != nil {
		t.Fatal(err)
	}

	want := [][2]string{
		{"running", "locked"},
		{"locked", "checkpointed"},
		{"checkpointed", "locked"},
		{"locked", "running"},
	}
	evs := tr.Events()
	if len(evs) != len(want) {
		t.Fatalf("trace has %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.Kind != "ckpt" || ev.Subject != "p" || ev.From != want[i][0] || ev.To != want[i][1] {
			t.Fatalf("event %d = %+v, want %v->%v", i, ev, want[i][0], want[i][1])
		}
	}
}
