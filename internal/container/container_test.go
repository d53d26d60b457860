package container

import (
	"context"
	"errors"
	"testing"
	"time"

	"swapservellm/internal/cgroup"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/engine"
	"swapservellm/internal/gpu"
	"swapservellm/internal/models"
	"swapservellm/internal/openai"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
	"swapservellm/internal/storage"
)

var testEpoch = time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)

type rig struct {
	clock   simclock.Clock
	tb      perfmodel.Testbed
	device  *gpu.Device
	store   *storage.ModelStore
	freezer *cgroup.Freezer
	driver  *cudackpt.Driver
	rt      *Runtime
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigOn(simclock.NewScaled(testEpoch, 5000))
}

// newVirtualRig is newRig on a Virtual clock, with the calling test
// goroutine registered on its gate until the test's cleanups finish:
// simulated durations are then exact, free of a scaled clock's
// wall-clock slop under host load.
func newVirtualRig(t *testing.T) *rig {
	t.Helper()
	clock := simclock.NewVirtual(testEpoch)
	gate := clock.Gate()
	gate.Enter()
	t.Cleanup(gate.Exit)
	return newRigOn(clock)
}

func newRigOn(clock simclock.Clock) *rig {
	tb := perfmodel.H100()
	dev := gpu.NewDevice(0, tb.GPU, tb.GPUMemBytes)
	store := storage.NewModelStore(clock, tb)
	fr := cgroup.NewFreezer()
	drv := cudackpt.NewDriver(clock, tb, 0)
	return &rig{
		clock: clock, tb: tb, device: dev, store: store,
		freezer: fr, driver: drv,
		rt: NewRuntime(clock, tb, fr, drv),
	}
}

// spec builds a container spec hosting an Ollama engine for modelName.
func (r *rig) spec(t *testing.T, name, modelName string) Spec {
	t.Helper()
	m := models.Default().MustLookup(modelName)
	if err := engine.StageWeights(r.store, perfmodel.TierDisk, m); err != nil {
		t.Fatal(err)
	}
	return Spec{
		Name:  name,
		Image: "ollama/ollama:latest",
		Engine: func(owner string) (engine.Engine, error) {
			return engine.NewOllama(engine.Config{
				Owner: owner, Model: m, Testbed: r.tb, Clock: r.clock,
				Device: r.device, Store: r.store, Tier: perfmodel.TierDisk,
			})
		},
	}
}

// startReady creates, starts, and waits for a container.
func (r *rig) startReady(t *testing.T, name, modelName string) *Container {
	t.Helper()
	c, err := r.rt.Create(context.Background(), r.spec(t, name, modelName))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.Start(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateAssignsIdentity(t *testing.T) {
	r := newRig(t)
	c, err := r.rt.Create(context.Background(), r.spec(t, "backend-a", "llama3.2:1b-fp16"))
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() == "" || c.IP() == "" || c.Name() != "backend-a" {
		t.Fatalf("identity: id=%q ip=%q name=%q", c.ID(), c.IP(), c.Name())
	}
	if c.State() != StateCreated {
		t.Fatalf("state = %s", c.State())
	}
	// The cgroup must exist under machine.slice.
	if _, err := r.freezer.SelfState("/machine.slice/libpod-" + c.ID()); err != nil {
		t.Fatalf("cgroup missing: %v", err)
	}
}

func TestCreateValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.rt.Create(context.Background(), Spec{Name: "", Engine: func(string) (engine.Engine, error) { return nil, nil }}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := r.rt.Create(context.Background(), Spec{Name: "x"}); err == nil {
		t.Error("missing engine factory accepted")
	}
	r.rt.Create(context.Background(), r.spec(t, "dup", "llama3.2:1b-fp16"))
	if _, err := r.rt.Create(context.Background(), r.spec(t, "dup", "llama3.2:1b-fp16")); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate name: %v", err)
	}
}

func TestStartServesEngineAPI(t *testing.T) {
	r := newRig(t)
	c := r.startReady(t, "backend-b", "llama3.2:1b-fp16")
	if c.State() != StateRunning || c.Port() == 0 {
		t.Fatalf("state=%s port=%d", c.State(), c.Port())
	}
	cli := openai.NewClient(c.BaseURL())
	seed := int64(1)
	resp, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:     "llama3.2:1b-fp16",
		Messages:  []ir.Message{{Role: "user", Content: "hello"}},
		Seed:      &seed,
		MaxTokens: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Usage.CompletionTokens != 4 {
		t.Fatalf("usage = %+v", resp.Usage)
	}
}

func TestStartRegistersWithDriver(t *testing.T) {
	r := newRig(t)
	c := r.startReady(t, "backend-drv", "llama3.2:1b-fp16")
	if _, err := r.driver.State(c.ID()); err != nil {
		t.Fatalf("driver does not know the container process: %v", err)
	}
}

func TestWaitReadyBeforeStart(t *testing.T) {
	r := newRig(t)
	c, _ := r.rt.Create(context.Background(), r.spec(t, "pre", "llama3.2:1b-fp16"))
	if err := c.WaitReady(context.Background()); !errors.Is(err, ErrBadState) {
		t.Fatalf("WaitReady before start: %v", err)
	}
}

func TestPauseBlocksServing(t *testing.T) {
	r := newRig(t)
	c := r.startReady(t, "backend-p", "llama3.2:1b-fp16")
	if err := r.rt.Pause(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if c.State() != StatePaused {
		t.Fatalf("state = %s", c.State())
	}
	frozen, err := r.freezer.EffectivelyFrozen("/machine.slice/libpod-" + c.ID())
	if err != nil || !frozen {
		t.Fatalf("cgroup not frozen: %v %v", frozen, err)
	}

	// A request against the paused container must hang until unpause.
	done := make(chan error, 1)
	go func() {
		seed := int64(1)
		_, err := openai.NewClient(c.BaseURL()).ChatCompletion(context.Background(),
			&ir.ChatCompletionRequest{
				Model:     "llama3.2:1b-fp16",
				Messages:  []ir.Message{{Role: "user", Content: "x"}},
				Seed:      &seed,
				MaxTokens: 2,
			})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("request against paused container returned: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := r.rt.Unpause(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("request after unpause: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request did not complete after unpause")
	}
}

func TestPauseStateMachine(t *testing.T) {
	r := newRig(t)
	c, _ := r.rt.Create(context.Background(), r.spec(t, "sm", "llama3.2:1b-fp16"))
	if err := r.rt.Pause(context.Background(), c); !errors.Is(err, ErrBadState) {
		t.Fatalf("pause created container: %v", err)
	}
	if err := r.rt.Unpause(context.Background(), c); !errors.Is(err, ErrBadState) {
		t.Fatalf("unpause created container: %v", err)
	}
	r.rt.Start(context.Background(), c)
	c.WaitReady(context.Background())
	r.rt.Pause(context.Background(), c)
	if err := r.rt.Pause(context.Background(), c); !errors.Is(err, ErrBadState) {
		t.Fatalf("double pause: %v", err)
	}
	r.rt.Unpause(context.Background(), c)
	if err := r.rt.Unpause(context.Background(), c); !errors.Is(err, ErrBadState) {
		t.Fatalf("double unpause: %v", err)
	}
}

func TestStopReleasesResources(t *testing.T) {
	r := newRig(t)
	c := r.startReady(t, "backend-s", "llama3.2:1b-fp16")
	if r.device.Used() == 0 {
		t.Fatal("expected GPU usage while running")
	}
	if err := r.rt.Stop(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateStopped {
		t.Fatalf("state = %s", c.State())
	}
	if r.device.OwnerUsage(c.ID()) != 0 {
		t.Fatal("GPU memory not released on stop")
	}
	// The driver must no longer track the process.
	if _, err := r.driver.State(c.ID()); err == nil {
		t.Fatal("driver still tracks stopped container")
	}
}

func TestStopPausedContainer(t *testing.T) {
	r := newRig(t)
	c := r.startReady(t, "backend-sp", "llama3.2:1b-fp16")
	r.rt.Pause(context.Background(), c)
	if err := r.rt.Stop(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateStopped {
		t.Fatalf("state = %s", c.State())
	}
}

func TestRemove(t *testing.T) {
	r := newRig(t)
	c := r.startReady(t, "backend-r", "llama3.2:1b-fp16")
	if err := r.rt.Remove(c); !errors.Is(err, ErrBadState) {
		t.Fatalf("remove running container: %v", err)
	}
	r.rt.Stop(context.Background(), c)
	if err := r.rt.Remove(c); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.Get("backend-r"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed container still listed: %v", err)
	}
	// Cgroup must be gone.
	if _, err := r.freezer.SelfState("/machine.slice/libpod-" + c.ID()); err == nil {
		t.Fatal("cgroup not removed")
	}
}

func TestGetAndList(t *testing.T) {
	r := newRig(t)
	r.rt.Create(context.Background(), r.spec(t, "zeta", "llama3.2:1b-fp16"))
	r.rt.Create(context.Background(), r.spec(t, "alpha", "deepseek-r1:1.5b-q4"))
	list := r.rt.List()
	if len(list) != 2 || list[0].Name() != "alpha" || list[1].Name() != "zeta" {
		t.Fatalf("List = %v", list)
	}
	if _, err := r.rt.Get("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
}

func TestInspect(t *testing.T) {
	r := newRig(t)
	c := r.startReady(t, "backend-i", "llama3.2:1b-fp16")
	info := c.Inspect()
	if info.Name != "backend-i" || info.State != StateRunning ||
		info.Engine != perfmodel.EngineOllama || info.Model != "llama3.2:1b-fp16" {
		t.Fatalf("info = %+v", info)
	}
	if info.Port == 0 || info.Cgroup == "" {
		t.Fatalf("info missing port/cgroup: %+v", info)
	}
}

func TestShutdownStopsEverything(t *testing.T) {
	r := newRig(t)
	r.startReady(t, "a", "llama3.2:1b-fp16")
	b := r.startReady(t, "b", "deepseek-r1:1.5b-q4")
	r.rt.Pause(context.Background(), b)
	r.rt.Shutdown()
	if len(r.rt.List()) != 0 {
		t.Fatalf("containers remain after shutdown: %v", r.rt.List())
	}
	if r.device.Used() != 0 {
		t.Fatalf("GPU memory leaked: %d", r.device.Used())
	}
}

func TestStartTakesSimulatedTime(t *testing.T) {
	r := newVirtualRig(t)
	c, _ := r.rt.Create(context.Background(), r.spec(t, "timing", "llama3.2:1b-fp16"))
	t0 := r.clock.Now()
	r.rt.Start(context.Background(), c)
	c.WaitReady(context.Background())
	elapsed := r.clock.Since(t0)
	// Ollama engine init ~2s + container start 0.8s + boot 0.1s.
	if elapsed < 2*time.Second || elapsed > 20*time.Second {
		t.Fatalf("start+init took %v simulated", elapsed)
	}
}

func TestEngineInitFailureSurfaced(t *testing.T) {
	r := newRig(t)
	// Fill the GPU so init fails with OOM.
	r.device.Alloc("squatter", 79*(int64(1)<<30))
	c, err := r.rt.Create(context.Background(), r.spec(t, "oom", "deepseek-r1:14b-fp16"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.Start(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	err = c.WaitReady(context.Background())
	if !errors.Is(err, ErrInitError) {
		t.Fatalf("WaitReady = %v, want ErrInitError", err)
	}
}

func TestStoppedContainerCannotRestart(t *testing.T) {
	// A stopped container's engine process is gone: restart is an error;
	// remove and recreate instead.
	r := newRig(t)
	c := r.startReady(t, "norestart", "llama3.2:1b-fp16")
	r.rt.Stop(context.Background(), c)
	if err := r.rt.Start(context.Background(), c); !errors.Is(err, ErrBadState) {
		t.Fatalf("restart of stopped container: %v", err)
	}
	r.rt.Remove(c)
	c2 := r.startReady(t, "norestart", "llama3.2:1b-fp16")
	if c2.State() != StateRunning {
		t.Fatalf("recreated container state = %v", c2.State())
	}
}

func TestDoubleStart(t *testing.T) {
	r := newRig(t)
	c := r.startReady(t, "dstart", "llama3.2:1b-fp16")
	if err := r.rt.Start(context.Background(), c); !errors.Is(err, ErrBadState) {
		t.Fatalf("double start: %v", err)
	}
}
