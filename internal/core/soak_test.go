package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// TestSoakRandomChurn drives a five-model deployment with randomized
// concurrent traffic, explicit admin swaps, and memory pressure, then
// checks the system's conservation invariants: no GPU or host-memory
// leaks, consistent reservation accounting, and every backend settled in
// a legal state. It runs on the Virtual clock: every client goroutine is
// registered and crosses the wire through the gate, so simulated
// latencies do not depend on host load.
func TestSoakRandomChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	modelNames := []string{
		"llama3.2:1b-fp16",
		"llama3.2:3b-fp16",
		"deepseek-r1:7b-q4",
		"deepseek-r1:14b-q4",
		"gemma:7b-fp16",
	}
	cfg := config.Default()
	cfg.Global.KeepAliveSec = 20
	for _, name := range modelNames {
		cfg.Models = append(cfg.Models, config.Model{Name: name, Engine: "ollama"})
	}
	clock := virtualTestClock(t)
	gate := clock.Gate()
	s := startServer(t, cfg, Options{Clock: clock})

	// Memory pressure: leave ~35 GiB of headroom so evictions happen.
	dev, _ := s.Topology().Device(0)
	if err := dev.Alloc("soak-squatter", 45*gib); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	churn := simclock.NewGroup(clock)
	var mu sync.Mutex
	served, failed := 0, 0
	sem := make(chan struct{}, 10)
	const requests = 120
	for i := 0; i < requests; i++ {
		// All random draws happen here: rng is not goroutine-safe.
		model := modelNames[rng.Intn(len(modelNames))]
		action := rng.Intn(10)
		maxTokens := 1 + rng.Intn(8)
		// The test goroutine is the only sender, so a free slot means the
		// send cannot block.
		gate.BlockOn(sem, func() bool { return len(sem) < cap(sem) }, func() { sem <- struct{}{} })
		churn.Go(func() {
			defer func() {
				<-sem
				gate.Wake(sem)
			}()
			switch {
			case action == 0:
				// Occasional explicit admin swap-out (may legitimately
				// fail if the backend is busy or already out).
				b, _ := s.Backend(model)
				s.Controller().SwapOut(context.Background(), b)
			default:
				seed := int64(i)
				_, err := serverClient(s).ChatCompletion(context.Background(),
					&ir.ChatCompletionRequest{
						Model:     model,
						Messages:  []ir.Message{{Role: "user", Content: "soak"}},
						Seed:      &seed,
						MaxTokens: maxTokens,
					})
				mu.Lock()
				if err != nil {
					failed++
				} else {
					served++
				}
				mu.Unlock()
			}
		})
	}
	churn.Wait()

	if failed > 0 {
		t.Errorf("%d/%d requests failed during churn", failed, served+failed)
	}

	// Let in-flight transitions settle (reaper sweeps, pending swaps).
	deadline := clock.Now().Add(10 * time.Minute)
	settled := func() bool {
		for _, b := range s.Backends() {
			st := b.State()
			if st != BackendRunning && st != BackendSwappedOut {
				return false
			}
			if b.Pending() > 0 || b.Active() > 0 {
				return false
			}
		}
		return s.TaskManager().PendingCount() == 0
	}
	for !settled() {
		if clock.Now().After(deadline) {
			for _, b := range s.Backends() {
				t.Logf("backend %s: state=%v pending=%d active=%d",
					b.Name(), b.State(), b.Pending(), b.Active())
			}
			t.Fatal("system did not settle after churn")
		}
		clock.Sleep(5 * time.Millisecond)
	}

	// Invariant 1: device accounting. Used = squatter + running backends.
	var wantUsed int64 = 45 * gib
	for _, b := range s.Backends() {
		if b.State() == BackendRunning {
			wantUsed += b.Container().Engine().GPUBytes()
		}
	}
	if got := dev.Used(); got != wantUsed {
		t.Errorf("device used = %d, want %d (per-backend sum)", got, wantUsed)
	}

	// Invariant 2: host snapshot accounting. HostUsed = sum of snapshots
	// of swapped-out backends.
	var wantHost int64
	for _, b := range s.Backends() {
		if b.State() == BackendSwappedOut {
			img, err := s.driver.ImageBytes(b.Container().ID())
			if err != nil {
				t.Fatalf("image bytes for %s: %v", b.Name(), err)
			}
			wantHost += img
		}
	}
	if got := s.driver.HostUsed(); got != wantHost {
		t.Errorf("host snapshot bytes = %d, want %d", got, wantHost)
	}

	// Invariant 3: no reservation headroom leaked.
	if got := s.TaskManager().Reserved(0); got != 0 {
		t.Errorf("leaked reservation headroom: %d bytes", got)
	}

	// Invariant 4: every backend still serves.
	for _, name := range modelNames {
		seed := int64(7)
		if _, err := serverClient(s).ChatCompletion(context.Background(),
			&ir.ChatCompletionRequest{
				Model:     name,
				Messages:  []ir.Message{{Role: "user", Content: "post-soak"}},
				Seed:      &seed,
				MaxTokens: 1,
			}); err != nil {
			t.Errorf("%s unservable after soak: %v", name, err)
		}
	}
}
