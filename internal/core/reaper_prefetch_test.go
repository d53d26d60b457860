package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/sched"
)

// The reaper and the prefetcher form an autoscaling pair working in
// opposite directions: the reaper reclaims memory behind idle backends,
// the prefetcher restores them ahead of predicted demand. These tests
// pin down their interaction — neither may immediately undo the other's
// work. Both sweeps are driven by explicit calls (the config leaves the
// background loops disabled) on a Virtual clock, so the interleavings
// are exact.

// prefetchSetup starts a one-model server with both loops disabled and
// primes the node's demand predictor with chats spaced gap simulated
// time apart.
func prefetchSetup(t *testing.T, gap time.Duration) (*Server, *Backend) {
	t.Helper()
	cfg := config.Default()
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	s := startServer(t, cfg, Options{Clock: virtualTestClock(t)})
	b, _ := s.Backend("llama3.2:1b-fp16")
	for i := 0; i < 4; i++ {
		serverChat(t, s, "llama3.2:1b-fp16", 1)
		s.clock.Sleep(gap)
	}
	if _, _, ok := s.demand.NextArrival(b.name); !ok {
		t.Fatal("EWMA predictor not primed")
	}
	return s, b
}

// reapSweepWith runs one reaper sweep under a fixed keep-alive window.
func reapSweepWith(s *Server, keepAlive time.Duration) {
	s.ttl = &sched.FixedTTL{TTL: keepAlive}
	s.reapSweep()
}

// TestReaperSparesPrefetchedBackend: a proactive prefetch swap-in resets
// the backend's idle clock. Even when the last request arrival is well
// outside the keep-alive window, the reaper must not reclaim a backend
// the prefetcher just restored — idle time runs from the moment it last
// became servable, not from the last request.
func TestReaperSparesPrefetchedBackend(t *testing.T) {
	// ~12 simulated seconds between arrivals; keep-alive is 6, so by the
	// time the prefetcher fires (one EWMA period after the last arrival)
	// the last access is already older than the keep-alive window.
	s, b := prefetchSetup(t, 12*time.Second)
	if err := s.Controller().SwapOut(context.Background(), b); err != nil {
		t.Fatal(err)
	}

	deadline := s.clock.Now().Add(time.Minute)
	for b.State() != BackendRunning {
		if s.clock.Now().After(deadline) {
			_, gap, _ := s.demand.NextArrival(b.name)
			t.Fatalf("prefetcher never restored the backend (state=%v, ewma=%v)", b.State(), gap)
		}
		s.prefetchSweep()
		s.clock.Sleep(250 * time.Millisecond)
	}
	if s.Registry().Counter("prefetch_swap_ins").Value() == 0 {
		t.Fatal("prefetch_swap_ins not incremented")
	}

	// The last arrival is now >= one EWMA period (~12 simulated seconds)
	// in the past — outside the 6-second keep-alive window. A reap sweep
	// right after the prefetch must leave the backend alone.
	if idle := s.clock.Now().Sub(b.LastAccessed()); idle < 6*time.Second {
		t.Fatalf("test premise broken: last access only %v ago", idle)
	}
	reapSweepWith(s, 6*time.Second)
	if b.State() != BackendRunning {
		t.Fatal("reaper reclaimed a freshly prefetched backend")
	}
	if v := s.Registry().Counter("idle_reaps").Value(); v != 0 {
		t.Fatalf("idle_reaps = %v after prefetch", v)
	}

	// The guard is a grace period, not an exemption: once the backend has
	// been servable-but-unused for a full keep-alive window, the reaper
	// reclaims it as usual.
	s.clock.Sleep(10 * time.Second)
	reapSweepWith(s, 6*time.Second)
	if b.State() != BackendSwappedOut {
		t.Fatalf("reaper never reclaimed the idle prefetched backend (state=%v)", b.State())
	}
	if v := s.Registry().Counter("idle_reaps").Value(); v != 1 {
		t.Fatalf("idle_reaps = %v, want 1", v)
	}
}

// TestPrefetcherSkipsFreshlyReapedBackend: the inverse interaction. A
// backend reaped for genuine idleness — traffic stopped long enough that
// the predicted next arrival is stale — must not be prefetched straight
// back in, or the pair would thrash swap-out/swap-in forever.
func TestPrefetcherSkipsFreshlyReapedBackend(t *testing.T) {
	// ~6 simulated seconds between arrivals, then silence.
	s, b := prefetchSetup(t, 6*time.Second)

	// Let the trace go cold: 24 simulated seconds with no arrivals puts
	// the predicted next arrival more than one EWMA period in the past.
	s.clock.Sleep(24 * time.Second)

	reapSweepWith(s, 5*time.Second)
	if b.State() != BackendSwappedOut {
		t.Fatalf("reaper did not reclaim the idle backend (state=%v)", b.State())
	}

	// Repeated prefetch sweeps must leave the reaped backend swapped out.
	for i := 0; i < 5; i++ {
		s.prefetchSweep()
		s.clock.Sleep(time.Second)
	}
	if b.State() != BackendSwappedOut {
		t.Fatalf("prefetcher restored a backend with no predicted demand (state=%v)", b.State())
	}
	if v := s.Registry().Counter("prefetch_swap_ins").Value(); v != 0 {
		t.Fatalf("prefetch_swap_ins = %v after cold reap", v)
	}

	// The predictor re-arms when traffic resumes: two fresh arrivals
	// rebuild the EWMA and the next quiet gap is prefetched again.
	serverChat(t, s, "llama3.2:1b-fp16", 1)
	s.clock.Sleep(6 * time.Second)
	serverChat(t, s, "llama3.2:1b-fp16", 1)
	if err := s.Controller().SwapOut(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	deadline := s.clock.Now().Add(time.Minute)
	for s.Registry().Counter("prefetch_swap_ins").Value() == 0 {
		if s.clock.Now().After(deadline) {
			t.Fatal("prefetcher never re-armed after traffic resumed")
		}
		s.prefetchSweep()
		s.clock.Sleep(250 * time.Millisecond)
	}
}

// countingTTL is a fixed policy that counts how often the reaper asks it.
type countingTTL struct {
	sched.FixedTTL
	asked atomic.Int64
}

func (c *countingTTL) ShouldEvict(model string, idleFor time.Duration, now time.Time) bool {
	c.asked.Add(1)
	return c.FixedTTL.ShouldEvict(model, idleFor, now)
}

// TestReaperConsultsPassedTTL: a policy passed in Options.TTL replaces
// the keep_alive_sec default — with a 2-second keep-alive configured and
// a one-hour policy passed, the reaper keeps asking the policy and
// reclaims nothing.
func TestReaperConsultsPassedTTL(t *testing.T) {
	cfg := config.Default()
	cfg.Global.KeepAliveSec = 2
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	ttl := &countingTTL{FixedTTL: sched.FixedTTL{TTL: time.Hour}}
	s := startServer(t, cfg, Options{Clock: virtualTestClock(t), TTL: ttl})
	b, _ := s.Backend("llama3.2:1b-fp16")

	serverChat(t, s, "llama3.2:1b-fp16", 1)
	s.clock.Sleep(30 * time.Second)
	if b.State() != BackendRunning {
		t.Fatalf("backend reaped under a one-hour policy (state=%v)", b.State())
	}
	if v := s.Registry().Counter("idle_reaps").Value(); v != 0 {
		t.Fatalf("idle_reaps = %v, want 0", v)
	}
	if ttl.asked.Load() == 0 {
		t.Fatal("the reaper never consulted the passed policy")
	}
}
