package invariant

import (
	"context"
	"errors"
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

// exchangeServer boots a one-GPU deployment on a Virtual clock: a
// swapped-out target and a keep-warm victim holding the device, so
// serving the target is an exchange that must evict the victim.
func exchangeServer(t *testing.T) (s *core.Server, victim, target *core.Backend) {
	t.Helper()
	cfg := config.Default()
	cfg.Models = []config.Model{
		{Name: "llama3.2:1b-fp16", Engine: "vllm"},
		{Name: "llama3.2:3b-fp16", Engine: "vllm", KeepWarm: true},
	}
	clock := simclock.NewVirtual(time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC))
	gate := clock.Gate()
	gate.Enter()
	t.Cleanup(gate.Exit)
	s, err := core.New(cfg, core.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	startCtx, cancelStart := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelStart()
	if err := s.Start(startCtx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	target, _ = s.Backend("llama3.2:1b-fp16")
	victim, _ = s.Backend("llama3.2:3b-fp16")
	return s, victim, target
}

// TestExchangeCanceledMidRestoreLeavesConsistentState cancels a
// sequential served exchange between the target's restore chunks and
// checks the whole-system rollback contract with the same invariants
// the chaos soak uses: the aborted swap-in rolls the target back to
// SwappedOut, every driver/task-manager ledger balances at quiescence,
// and a fresh ctx can still swap the target in. It lives here (not in
// package core) because CheckServer would otherwise be an import cycle.
func TestExchangeCanceledMidRestoreLeavesConsistentState(t *testing.T) {
	s, victim, target := exchangeServer(t)

	// Cancel after the target's tenth committed restore chunk: the
	// victim's checkpoint has fully landed (the restore starts with the
	// grant, inside the victim's last eight chunks), the target's H2D
	// transfer is mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var restored int
	s.Driver().OnChunk(func(ev cudackpt.ChunkEvent) {
		if ev.PID == target.Container().ID() && ev.Dir == perfmodel.DirH2D {
			restored++
			if restored == 10 {
				cancel()
			}
		}
	})
	err := s.Scheduler().EnsureRunning(ctx, target)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EnsureRunning = %v, want context.Canceled", err)
	}
	if st := target.State(); st != core.BackendSwappedOut {
		t.Fatalf("target state after cancelled restore = %v, want swapped-out", st)
	}
	if st := victim.State(); st != core.BackendSwappedOut {
		t.Fatalf("victim state after cancelled exchange = %v, want swapped-out", st)
	}

	// The aborted exchange must leave no half-claimed capacity behind:
	// the same quiescent-state audit the chaos harness runs.
	var r Report
	CheckServer(&r, s)
	if !r.Ok() {
		t.Fatalf("invariants violated after cancelled exchange:\n%s", r.String())
	}

	// The rollback is recoverable, not just consistent: a live ctx
	// swaps the target in from its intact host image.
	if err := s.Scheduler().EnsureRunning(context.Background(), target); err != nil {
		t.Fatalf("swap-in retry after cancel: %v", err)
	}
	if st := target.State(); st != core.BackendRunning {
		t.Fatalf("target state after retry = %v, want running", st)
	}
	r = Report{}
	CheckServer(&r, s)
	if !r.Ok() {
		t.Fatalf("invariants violated after recovery swap-in:\n%s", r.String())
	}
}

// TestExchangeCanceledMidCheckpointRecoversVictim cancels the exchange
// while the victim's checkpoint is still draining. The sequential swap-in
// is still waiting for its grant, so it surfaces the cancellation while
// the eviction its reservation started rolls back: the victim must
// return to Running (its device state never fully left) and the system
// must audit clean.
func TestExchangeCanceledMidCheckpointRecoversVictim(t *testing.T) {
	s, victim, target := exchangeServer(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var saved int
	s.Driver().OnChunk(func(ev cudackpt.ChunkEvent) {
		if ev.PID == victim.Container().ID() && ev.Dir == perfmodel.DirD2H {
			saved++
			if saved == 2 {
				cancel()
			}
		}
	})
	err := s.Scheduler().EnsureRunning(ctx, target)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EnsureRunning = %v, want context.Canceled", err)
	}
	if st := victim.State(); st != core.BackendRunning {
		t.Fatalf("victim state after cancelled checkpoint = %v, want running", st)
	}
	if st := target.State(); st != core.BackendSwappedOut {
		t.Fatalf("target state after cancelled exchange = %v, want swapped-out", st)
	}
	var r Report
	CheckServer(&r, s)
	if !r.Ok() {
		t.Fatalf("invariants violated after cancelled checkpoint:\n%s", r.String())
	}
}
