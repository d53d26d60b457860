package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/config"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/proxy/ir"
)

// TestSwapInFailureRecovers injects a driver restore fault: the first
// request fails with a backend error, the backend stays swapped out with
// its snapshot intact, and the next request succeeds.
func TestSwapInFailureRecovers(t *testing.T) {
	s := testServer(t, ollamaModel("llama3.2:1b-fp16"))
	b, _ := s.Backend("llama3.2:1b-fp16")
	s.Driver().SetChaos(chaos.FailNext(chaos.SiteCkptRestore, 1))

	seed := int64(1)
	_, err := serverClient(s).ChatCompletion(context.Background(),
		&ir.ChatCompletionRequest{
			Model:     "llama3.2:1b-fp16",
			Messages:  []ir.Message{{Role: "user", Content: "x"}},
			Seed:      &seed,
			MaxTokens: 2,
		})
	if err == nil {
		t.Fatal("request succeeded despite injected restore fault")
	}

	// The backend must have rolled back to swapped-out with its snapshot.
	if b.State() != BackendSwappedOut {
		t.Fatalf("state after failed swap-in = %v", b.State())
	}
	img, ierr := s.Driver().ImageBytes(b.Container().ID())
	if ierr != nil || img == 0 {
		t.Fatalf("snapshot lost after failed restore: %d, %v", img, ierr)
	}
	// No reservation headroom leaked.
	if got := s.TaskManager().Reserved(0); got != 0 {
		t.Fatalf("leaked reservation: %d", got)
	}

	// The fault was one-shot: the next request swaps in and serves.
	serverChat(t, s, "llama3.2:1b-fp16", 2)
	if b.State() != BackendRunning {
		t.Fatalf("state after retry = %v", b.State())
	}
}

// TestSwapOutFailureKeepsServing injects a checkpoint fault during an
// explicit swap-out: the operation fails, but the backend remains running
// and continues to serve.
func TestSwapOutFailureKeepsServing(t *testing.T) {
	m := ollamaModel("llama3.2:1b-fp16")
	m.KeepWarm = true
	s := testServer(t, m)
	b, _ := s.Backend("llama3.2:1b-fp16")

	s.Driver().SetChaos(chaos.FailNext(chaos.SiteCkptCheckpoint, 1))
	err := s.Controller().SwapOut(context.Background(), b)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("swap-out error = %v, want injected", err)
	}
	if b.State() != BackendRunning {
		t.Fatalf("state after failed swap-out = %v", b.State())
	}
	// Device memory intact and serving works.
	if b.Container().Engine().GPUBytes() == 0 {
		t.Fatal("engine lost its GPU memory after failed swap-out")
	}
	serverChat(t, s, "llama3.2:1b-fp16", 2)
}

// TestLockFaultDuringSwapOut covers the earliest failure point: the CUDA
// lock itself fails; the suspend rolls back and the backend keeps
// serving.
func TestLockFaultDuringSwapOut(t *testing.T) {
	m := ollamaModel("llama3.2:1b-fp16")
	m.KeepWarm = true
	s := testServer(t, m)
	b, _ := s.Backend("llama3.2:1b-fp16")

	s.Driver().SetChaos(chaos.FailNext(chaos.SiteCkptLock, 1))
	if err := s.Controller().SwapOut(context.Background(), b); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("swap-out error = %v, want injected", err)
	}
	if b.State() != BackendRunning {
		t.Fatalf("state = %v", b.State())
	}
	// A later swap-out works.
	if err := s.Controller().SwapOut(context.Background(), b); err != nil {
		t.Fatalf("swap-out after fault cleared: %v", err)
	}
	if b.State() != BackendSwappedOut {
		t.Fatalf("state = %v", b.State())
	}
}

// TestThawFaultDuringSwapIn: the cgroup thaw fails after a successful
// GPU restore. The controller must roll the driver back to Checkpointed
// (re-suspend) so the backend's SwappedOut state stays consistent with
// the driver, and the next request must recover.
func TestThawFaultDuringSwapIn(t *testing.T) {
	s := testServer(t, ollamaModel("llama3.2:1b-fp16"))
	b, _ := s.Backend("llama3.2:1b-fp16")
	// Unpause retries past transient faults, so arm enough thaw failures
	// to exhaust the retry budget and fail the whole swap-in.
	s.Freezer().SetChaos(chaos.FailNext(chaos.SiteCgroupThaw, 4))

	seed := int64(1)
	_, err := serverClient(s).ChatCompletion(context.Background(),
		&ir.ChatCompletionRequest{
			Model:     "llama3.2:1b-fp16",
			Messages:  []ir.Message{{Role: "user", Content: "x"}},
			Seed:      &seed,
			MaxTokens: 2,
		})
	if err == nil {
		t.Fatal("request succeeded despite injected thaw faults")
	}
	if b.State() != BackendSwappedOut {
		t.Fatalf("state after failed swap-in = %v", b.State())
	}
	// The rollback must have re-checkpointed the GPU state, keeping the
	// backend/driver views consistent.
	if ds, _ := s.Driver().State(b.Container().ID()); ds != cudackpt.StateCheckpointed {
		t.Fatalf("driver state after rollback = %v", ds)
	}
	if got := s.TaskManager().Reserved(0); got != 0 {
		t.Fatalf("leaked reservation: %d", got)
	}
	serverChat(t, s, "llama3.2:1b-fp16", 2)
	if b.State() != BackendRunning {
		t.Fatalf("state after retry = %v", b.State())
	}
}

// TestFreezeFaultDuringSwapOut: the cgroup freeze fails before the
// checkpoint; the backend must stay running and keep serving.
func TestFreezeFaultDuringSwapOut(t *testing.T) {
	m := ollamaModel("llama3.2:1b-fp16")
	m.KeepWarm = true
	s := testServer(t, m)
	b, _ := s.Backend("llama3.2:1b-fp16")

	s.Freezer().SetChaos(chaos.FailNext(chaos.SiteCgroupFreeze, 1))
	if err := s.Controller().SwapOut(context.Background(), b); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("swap-out error = %v, want injected", err)
	}
	if b.State() != BackendRunning {
		t.Fatalf("state after failed swap-out = %v", b.State())
	}
	serverChat(t, s, "llama3.2:1b-fp16", 2)
}

// TestPreemptionSurvivesRestoreFault: a fault during a preemption-driven
// swap-in must not wedge the reservation queue — the retry path recovers.
func TestPreemptionSurvivesRestoreFault(t *testing.T) {
	cfg := config.Default()
	cfg.Models = []config.Model{
		vllmModel("llama3.2:1b-fp16"),
		vllmModel("llama3.2:3b-fp16"),
	}
	s, err := New(cfg, Options{Clock: virtualTestClock(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	// Serve A so B's swap-in needs a preemption; fault B's first restore.
	serverChat(t, s, "llama3.2:1b-fp16", 1)
	s.Driver().SetChaos(chaos.FailNext(chaos.SiteCkptRestore, 1))
	seed := int64(1)
	_, err = serverClient(s).ChatCompletion(context.Background(),
		&ir.ChatCompletionRequest{
			Model:     "llama3.2:3b-fp16",
			Messages:  []ir.Message{{Role: "user", Content: "x"}},
			Seed:      &seed,
			MaxTokens: 1,
		})
	if err == nil {
		t.Fatal("request succeeded despite injected fault")
	}
	// The failed request cancels A's preemption, whose rollback puts A's
	// state back on the device after the error has reached the client.
	// The rollback takes that memory outside the task manager, so a retry
	// reserving it meanwhile loses its restore to the OOM; retry once A
	// has settled.
	a, _ := s.Backend("llama3.2:1b-fp16")
	for a.State() == BackendSwapping {
		s.Clock().Sleep(10 * time.Millisecond)
	}
	// Recovery: B serves on retry.
	serverChat(t, s, "llama3.2:3b-fp16", 1)
	bb, _ := s.Backend("llama3.2:3b-fp16")
	if bb.State() != BackendRunning {
		t.Fatalf("state = %v", bb.State())
	}
	if got := s.TaskManager().Reserved(0); got != 0 {
		t.Fatalf("leaked reservation: %d", got)
	}
}
