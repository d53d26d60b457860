package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"swapservellm/internal/gpu"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
	"swapservellm/internal/storage"
)

const gib = int64(1) << 30

var testEpoch = time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)

// testRig bundles the substrates an engine needs.
type testRig struct {
	clock  simclock.Clock
	tb     perfmodel.Testbed
	device *gpu.Device
	store  *storage.ModelStore
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	return rigOn(simclock.NewScaled(testEpoch, 2000)) // fast: unit tests only check behaviour
}

// newVirtualRig is newRig on a Virtual clock with the test goroutine
// registered on its gate until the test's cleanups finish, so simulated
// timings are exact instead of scaled wall time.
func newVirtualRig(t *testing.T) *testRig {
	t.Helper()
	clock := simclock.NewVirtual(testEpoch)
	gate := clock.Gate()
	gate.Enter()
	t.Cleanup(gate.Exit)
	return rigOn(clock)
}

func rigOn(clock simclock.Clock) *testRig {
	tb := perfmodel.H100()
	return &testRig{
		clock:  clock,
		tb:     tb,
		device: gpu.NewDevice(0, tb.GPU, tb.GPUMemBytes),
		store:  storage.NewModelStore(clock, tb),
	}
}

func (r *testRig) config(t *testing.T, owner, modelName string) Config {
	t.Helper()
	m := models.Default().MustLookup(modelName)
	if err := StageWeights(r.store, perfmodel.TierDisk, m); err != nil {
		t.Fatal(err)
	}
	return Config{
		Owner:   owner,
		Model:   m,
		Testbed: r.tb,
		Clock:   r.clock,
		Device:  r.device,
		Store:   r.store,
		Tier:    perfmodel.TierDisk,
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t)
	m := models.Default().MustLookup("llama3.2:1b-fp16")
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing owner", Config{Model: m, Clock: r.clock, Device: r.device}},
		{"missing model", Config{Owner: "o", Clock: r.clock, Device: r.device}},
		{"missing clock", Config{Owner: "o", Model: m, Device: r.device}},
		{"missing device", Config{Owner: "o", Model: m, Clock: r.clock}},
	}
	for _, c := range cases {
		if _, err := NewVLLM(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFactory(t *testing.T) {
	r := newRig(t)
	for _, kind := range []perfmodel.EngineKind{
		perfmodel.EngineVLLM, perfmodel.EngineOllama, perfmodel.EngineSGLang, perfmodel.EngineTRTLLM,
	} {
		e, err := New(kind, r.config(t, "f-"+string(kind), "llama3.2:1b-fp16"))
		if err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
		if e.Kind() != kind {
			t.Errorf("Kind = %s, want %s", e.Kind(), kind)
		}
		if e.State() != StateCreated {
			t.Errorf("%s initial state = %v", kind, e.State())
		}
	}
	if _, err := New("llamafile", r.config(t, "x", "llama3.2:1b-fp16")); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestVLLMInitAllocatesPool(t *testing.T) {
	r := newRig(t)
	e, err := NewVLLM(r.config(t, "vllm-1", "llama3.2:1b-fp16"))
	if err != nil {
		t.Fatal(err)
	}
	bd, err := e.Init(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if e.State() != StateReady {
		t.Fatalf("state = %v", e.State())
	}
	// vLLM preallocates 90% of the 80 GiB device — the Figure 6a footprint.
	if got := e.GPUBytes(); got != 72*gib {
		t.Fatalf("GPU footprint = %d, want %d", got, 72*gib)
	}
	// Table 1 anchor for llama3.2:1b-fp16: total 34.14s.
	if total := bd.Total().Seconds(); total < 33 || total > 36 {
		t.Fatalf("init breakdown total = %v", total)
	}
}

func TestVLLMInitTakesSimulatedTime(t *testing.T) {
	r := newRig(t)
	e, _ := NewVLLM(r.config(t, "vllm-t", "llama3.2:1b-fp16"))
	t0 := r.clock.Now()
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := r.clock.Since(t0)
	// Table 1: ~34s of engine init for the 1B model.
	if elapsed < 30*time.Second || elapsed > 60*time.Second {
		t.Fatalf("init took %v simulated, want ~34s", elapsed)
	}
}

func TestOllamaInitFootprint(t *testing.T) {
	r := newRig(t)
	e, err := NewOllama(r.config(t, "ollama-1", "llama3.2:1b-fp16"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Figure 6b: LLaMA 3.2 1B FP16 uses ~3.6 GB under Ollama.
	got := float64(e.GPUBytes()) / float64(gib)
	if got < 3.0 || got > 4.2 {
		t.Fatalf("Ollama 1B footprint = %.2f GiB, want ~3.6", got)
	}
}

func TestOllama14BFootprint(t *testing.T) {
	r := newRig(t)
	e, _ := NewOllama(r.config(t, "ollama-14b", "deepseek-r1:14b-fp16"))
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Figure 6b: DS-R1 14B FP16 uses ~30.5 GB under Ollama.
	got := float64(e.GPUBytes()) / float64(gib)
	if got < 28 || got > 33 {
		t.Fatalf("Ollama 14B footprint = %.2f GiB, want ~30.5", got)
	}
}

func TestInitFromWrongState(t *testing.T) {
	r := newRig(t)
	e, _ := NewOllama(r.config(t, "o-dup", "llama3.2:1b-fp16"))
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err == nil {
		t.Fatal("double Init accepted")
	}
}

func TestInitOOMCleansUp(t *testing.T) {
	r := newRig(t)
	// Fill the device so the weights cannot be placed.
	r.device.Alloc("squatter", 79*gib)
	e, _ := NewVLLM(r.config(t, "v-oom", "deepseek-r1:14b-fp16"))
	if _, err := e.Init(context.Background()); !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if e.State() != StateStopped {
		t.Fatalf("state after failed init = %v", e.State())
	}
	if got := r.device.OwnerUsage("v-oom"); got != 0 {
		t.Fatalf("leaked %d bytes after failed init", got)
	}
}

func TestInitMissingWeights(t *testing.T) {
	r := newRig(t)
	m := models.Default().MustLookup("llama3.2:1b-fp16")
	cfg := Config{
		Owner: "no-weights", Model: m, Testbed: r.tb, Clock: r.clock,
		Device: r.device, Store: r.store, Tier: perfmodel.TierDisk,
	}
	e, _ := NewVLLM(cfg)
	if _, err := e.Init(context.Background()); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("expected ErrNotFound for missing weights, got %v", err)
	}
}

func TestInitCancellation(t *testing.T) {
	r := newRig(t)
	e, _ := NewVLLM(r.config(t, "v-cancel", "llama3.1:8b-fp16"))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel partway through the (simulated ~87s) init.
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := e.Init(ctx); err == nil {
		t.Fatal("cancelled init returned nil error")
	}
	if e.State() != StateStopped {
		t.Fatalf("state = %v", e.State())
	}
	if got := r.device.OwnerUsage("v-cancel"); got != 0 {
		t.Fatalf("leaked %d bytes after cancelled init", got)
	}
}

func TestShutdownFreesMemory(t *testing.T) {
	r := newRig(t)
	e, _ := NewOllama(r.config(t, "o-down", "llama3.2:1b-fp16"))
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if e.State() != StateStopped {
		t.Fatalf("state = %v", e.State())
	}
	if r.device.OwnerUsage("o-down") != 0 {
		t.Fatal("GPU memory not freed on shutdown")
	}
	// Idempotent.
	if err := e.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestAnalyticLoadWithoutStore(t *testing.T) {
	// Engines configured without a model store time the load phase
	// analytically.
	r := newRig(t)
	m := models.Default().MustLookup("llama3.2:1b-fp16")
	e, err := NewOllama(Config{
		Owner: "analytic", Model: m, Testbed: r.tb, Clock: r.clock, Device: r.device,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.State() != StateReady {
		t.Fatalf("state = %v", e.State())
	}
}

func TestVLLMSleepWake(t *testing.T) {
	r := newRig(t)
	e, _ := NewVLLM(r.config(t, "v-sleep", "llama3.2:1b-fp16"))
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	full := e.GPUBytes()
	if err := e.Sleep(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if e.State() != StateSleeping {
		t.Fatalf("state = %v", e.State())
	}
	slept := e.GPUBytes()
	if slept >= full/10 {
		t.Fatalf("sleep kept %d of %d bytes on device", slept, full)
	}
	if err := e.Wake(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.State() != StateReady || e.GPUBytes() != full {
		t.Fatalf("wake state=%v bytes=%d want ready/%d", e.State(), e.GPUBytes(), full)
	}
}

func TestVLLMSleepLevel2(t *testing.T) {
	r := newRig(t)
	e, _ := NewVLLM(r.config(t, "v-sleep2", "llama3.2:1b-fp16"))
	e.Init(context.Background())
	if err := e.Sleep(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Wake(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.State() != StateReady {
		t.Fatalf("state = %v", e.State())
	}
}

func TestVLLMSleepErrors(t *testing.T) {
	r := newRig(t)
	e, _ := NewVLLM(r.config(t, "v-sleep-e", "llama3.2:1b-fp16"))
	if err := e.Sleep(context.Background(), 1); err == nil {
		t.Error("sleep before init accepted")
	}
	e.Init(context.Background())
	if err := e.Sleep(context.Background(), 3); err == nil {
		t.Error("invalid sleep level accepted")
	}
	if err := e.Wake(context.Background()); err == nil {
		t.Error("wake while ready accepted")
	}
	if err := e.Sleep(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Sleep(context.Background(), 1); err == nil {
		t.Error("double sleep accepted")
	}
}

func TestVLLMWakeBlockedByTenant(t *testing.T) {
	r := newRig(t)
	e, _ := NewVLLM(r.config(t, "v-blocked", "llama3.2:1b-fp16"))
	e.Init(context.Background())
	if err := e.Sleep(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Another tenant takes the freed memory.
	if err := r.device.Alloc("tenant", 70*gib); err != nil {
		t.Fatal(err)
	}
	if err := e.Wake(context.Background()); !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("expected OOM on wake, got %v", err)
	}
	r.device.FreeOwner("tenant")
	if err := e.Wake(context.Background()); err != nil {
		t.Fatalf("wake after space freed: %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateCreated: "created", StateInitializing: "initializing",
		StateReady: "ready", StateSleeping: "sleeping", StateStopped: "stopped",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestStageWeightsIdempotent(t *testing.T) {
	r := newRig(t)
	m := models.Default().MustLookup("gemma3:4b-fp16")
	if err := StageWeights(r.store, perfmodel.TierDisk, m); err != nil {
		t.Fatal(err)
	}
	if err := StageWeights(r.store, perfmodel.TierDisk, m); err != nil {
		t.Fatalf("re-staging failed: %v", err)
	}
	if _, err := r.store.Stat(WeightBlobName(m)); err != nil {
		t.Fatal(err)
	}
}

func TestInitCacheSkipsCompile(t *testing.T) {
	r := newVirtualRig(t)
	cache := NewInitCache()
	cfg := r.config(t, "cache-1", "llama3.1:8b-fp16")
	cfg.InitCache = cache
	e1, _ := NewVLLM(cfg)
	bd1, err := e1.Init(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bd1.Compile <= 0 {
		t.Fatal("first init skipped compile despite cold cache")
	}
	e1.Shutdown()
	if cache.Len() != 1 {
		t.Fatalf("cache entries = %d", cache.Len())
	}

	cfg2 := r.config(t, "cache-2", "llama3.1:8b-fp16")
	cfg2.InitCache = cache
	e2, _ := NewVLLM(cfg2)
	t0 := r.clock.Now()
	bd2, err := e2.Init(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := r.clock.Since(t0)
	if bd2.Compile != 0 {
		t.Fatalf("warm-cache compile = %v, want 0", bd2.Compile)
	}
	if cache.Hits() != 1 {
		t.Fatalf("hits = %d", cache.Hits())
	}
	// The saved time is real: second init runs ~29s faster (Table 1's
	// compile column for L3.1-8B).
	saved := bd1.Total() - bd2.Total()
	if saved < 25*time.Second {
		t.Fatalf("warm cache saved only %v", saved)
	}
	if elapsed >= bd1.Total() {
		t.Fatalf("warm init took %v, not faster than cold %v", elapsed, bd1.Total())
	}
	// CUDA graphs are NOT cacheable: the phase still runs.
	if bd2.CUDAGraph != bd1.CUDAGraph {
		t.Fatalf("graph capture changed: %v vs %v", bd2.CUDAGraph, bd1.CUDAGraph)
	}
}

func TestInitCacheKeyedByModel(t *testing.T) {
	r := newRig(t)
	cache := NewInitCache()
	cfg := r.config(t, "cachek-1", "llama3.2:1b-fp16")
	cfg.InitCache = cache
	e1, _ := NewVLLM(cfg)
	e1.Init(context.Background())
	e1.Shutdown()
	// A different model misses.
	cfg2 := r.config(t, "cachek-2", "llama3.2:3b-fp16")
	cfg2.InitCache = cache
	e2, _ := NewVLLM(cfg2)
	bd, err := e2.Init(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bd.Compile == 0 {
		t.Fatal("cache hit across different models")
	}
	if cache.Len() != 2 {
		t.Fatalf("entries = %d", cache.Len())
	}
}

func TestInitCacheNilSafe(t *testing.T) {
	var c *InitCache
	m := models.Default().MustLookup("llama3.2:1b-fp16")
	if c.Warm(perfmodel.EngineVLLM, m, perfmodel.GPUH100) {
		t.Fatal("nil cache reported warm")
	}
	c.Record(perfmodel.EngineVLLM, m, perfmodel.GPUH100) // must not panic
	if c.Hits() != 0 || c.Len() != 0 {
		t.Fatal("nil cache accounting wrong")
	}
}
