package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/perfmodel"
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

// TestInitTimeoutOnServerClock: init_timeout_sec bounds engine
// initialization in simulated time. Under Virtual an init longer than
// the limit fails at exactly the limit's instant, counted from the
// start of the wait for the engine, and one within it succeeds.
func TestInitTimeoutOnServerClock(t *testing.T) {
	start := func(limitSec float64) (*Server, time.Duration, error) {
		cfg := config.Default()
		m := ollamaModel("llama3.2:1b-fp16")
		m.KeepWarm = true // Start returns once the engine is ready
		m.InitTimeoutSec = limitSec
		cfg.Models = []config.Model{m}
		clock := virtualTestClock(t)
		s, err := New(cfg, Options{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Shutdown)
		t0 := clock.Now()
		err = s.Start(context.Background())
		return s, clock.Since(t0), err
	}
	s, ready, err := start(0)
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed()
	waitFrom := tb.ContainerCreate + tb.ContainerStart +
		time.Duration(float64(perfmodel.EngineBootOverhead(perfmodel.EngineOllama))*tb.InitScale)
	initTook := ready - waitFrom
	if initTook <= 0 {
		t.Fatalf("engine ready %v after Start, before its wait began at %v", ready, waitFrom)
	}

	short := config.Model{InitTimeoutSec: initTook.Seconds() / 2}
	_, failed, err := start(short.InitTimeoutSec)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("init of %v under a %v limit: err = %v, want a deadline error", initTook, short.InitTimeout(), err)
	}
	if want := waitFrom + short.InitTimeout(); failed != want {
		t.Fatalf("init timed out %v after Start, want the limit's instant %v", failed, want)
	}

	_, took, err := start(2 * initTook.Seconds())
	if err != nil {
		t.Fatalf("init of %v under a %v limit: %v", initTook, 2*initTook, err)
	}
	if took != ready {
		t.Fatalf("init under a limit took %v, without one %v", took, ready)
	}
}

func TestServerAccessorsBeforeStart(t *testing.T) {
	cfg := config.Default()
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	s, err := New(cfg, Options{Clock: virtualTestClock(t)})
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
	gate.Enter()
	t.Cleanup(gate.Exit)
	return clock
}
