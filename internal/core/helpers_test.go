package core

import (
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/simclock"
)

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"llama3.2:1b-fp16":  "llama3.2-1b-fp16",
		"deepseek-r1:7b-q4": "deepseek-r1-7b-q4",
		"a/b c":             "a-b-c",
		"Already_Safe-1.0":  "Already_Safe-1.0",
		"weird!@#chars":     "weird---chars",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestToWallScaling(t *testing.T) {
	cfg := config.Default()
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	s, err := New(cfg, Options{Clock: simclock.NewScaled(testEpoch, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.toWall(10 * time.Second); got != 10*time.Millisecond {
		t.Fatalf("toWall(10s) at 1000x = %v, want 10ms", got)
	}

	// Unscaled clocks pass through.
	s2, err := New(cfg, Options{Clock: simclock.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.toWall(time.Second); got != time.Second {
		t.Fatalf("toWall on real clock = %v", got)
	}
}

func TestServerAccessorsBeforeStart(t *testing.T) {
	cfg := config.Default()
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	s, err := New(cfg, Options{Clock: simclock.NewScaled(testEpoch, 2000)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != "" {
		t.Fatal("Addr before Start should be empty")
	}
	if s.Testbed().Name != "h100" {
		t.Fatalf("testbed = %s", s.Testbed().Name)
	}
	if s.Clock() == nil || s.Registry() == nil || s.TaskManager() == nil ||
		s.Controller() == nil || s.Scheduler() == nil || s.Driver() == nil {
		t.Fatal("nil accessor")
	}
	if _, ok := s.Backend("anything"); ok {
		t.Fatal("backend exists before Start")
	}
	// Shutdown before Start is safe.
	s.Shutdown()
}

// virtualTestClock returns a fresh Virtual clock with the calling test
// goroutine registered on its gate until the test's cleanups finish, so
// the test's own swaps and waits take part in quiescence detection and
// simulated timings are exact. Register it before any cleanup that
// shuts a server down: cleanups run last-in first-out, so the shutdown
// then still runs registered.
func virtualTestClock(t *testing.T) *simclock.Virtual {
	t.Helper()
	clock := simclock.NewVirtual(testEpoch)
	gate := clock.Gate()
	gate.Enter() //swaplint:ignore gatecheck registration spans the test: t.Cleanup runs the matching Exit on the test goroutine
	t.Cleanup(gate.Exit)
	return clock
}
