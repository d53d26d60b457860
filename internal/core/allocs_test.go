package core

import (
	"context"
	"testing"
	"time"

	"swapservellm/internal/config"
)

// swapRotationServer builds the one-GPU node of the swap-rotation
// workload: two vLLM backends that each reserve 90% of the device, with
// the checkpoint store and pipelined swaps on, so serving the cold one
// is a pipelined exchange that checkpoints the other out. It returns
// the backends with the first one resident.
func swapRotationServer(t *testing.T) (*Server, *Backend, *Backend) {
	t.Helper()
	cfg := config.Default()
	cfg.Global.PipelinedSwap = true
	cfg.Global.CkptStore = true
	a, b := vllmModel("llama3.2:1b-fp16"), vllmModel("llama3.2:3b-fp16")
	a.GPUMemoryUtilization, b.GPUMemoryUtilization = 0.9, 0.9
	cfg.Models = []config.Model{a, b}
	s, err := New(cfg, Options{Clock: virtualTestClock(t)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	ba, _ := s.Backend(a.Name)
	bb, _ := s.Backend(b.Name)
	if ba.State() != BackendRunning {
		ba, bb = bb, ba
	}
	return s, ba, bb
}

// TestServedSwapAllocs pins what one served swap allocates: a pipelined
// EnsureRunning exchange on a Virtual server, a resident victim
// checkpointed out while the target restores in from a warm store.
// Everything the clock runs meanwhile counts: the reservation's reclaim,
// the victim's checkpoint, the target's restore and the resumed
// engine's health probe. It measured 55 allocations before the driver,
// the reservation path, the engine probe and untraced span attributes
// stopped allocating per swap, 24 to 26 after, and 21 once the store
// recycled its restore sessions; what is left is what outlives the swap
// (the reservation, its grant channels, the image's manifest) and the
// in-process HTTP hops.
func TestServedSwapAllocs(t *testing.T) {
	s, resident, cold := swapRotationServer(t)
	ctx := context.Background()
	swap := func(target *Backend) {
		if err := s.Scheduler().EnsureRunning(ctx, target); err != nil {
			t.Fatal(err)
		}
	}
	// Two round trips warm the store and every recycled buffer.
	for i := 0; i < 2; i++ {
		swap(cold)
		swap(resident)
	}
	got := testing.AllocsPerRun(20, func() {
		swap(cold)
		swap(resident)
	}) / 2
	t.Logf("served swap: %v allocations", got)
	if resident.State() != BackendRunning || cold.State() != BackendSwappedOut {
		t.Fatalf("states after the rotation: %v, %v", resident.State(), cold.State())
	}
	if got > 28 {
		t.Errorf("a served swap allocates %v times, budget 28", got)
	}
}
