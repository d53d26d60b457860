// Package container simulates the Podman container runtime that
// SwapServeLLM manages inference-engine backends with: container lifecycle
// (create/start/pause/unpause/stop/remove), cgroup-freezer-backed pause,
// per-container network endpoints, and integration with the transparent
// GPU checkpoint driver. Each container hosts a simulated inference
// engine served over a real HTTP listener (in-process under a Virtual
// clock, see simclock.Listen), so the SwapServeLLM router proxies
// requests exactly as it would against Podman-published ports.
package container

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"swapservellm/internal/cgroup"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/engine"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

// State is a container's lifecycle state, mirroring Podman's.
type State string

// Container states.
const (
	StateCreated State = "created"
	StateRunning State = "running"
	StatePaused  State = "paused"
	StateStopped State = "stopped"
	StateRemoved State = "removed"
)

// Errors returned by the runtime.
var (
	ErrNotFound  = errors.New("container: no such container")
	ErrExists    = errors.New("container: name already in use")
	ErrBadState  = errors.New("container: invalid state for operation")
	ErrInitError = errors.New("container: engine initialization failed")
)

// EngineFactory builds the engine workload for a container, given the
// container ID to use as the GPU allocation owner.
type EngineFactory func(owner string) (engine.Engine, error)

// Spec describes a container to create.
type Spec struct {
	// Name is the unique container name.
	Name string
	// Image is the container image reference (informational).
	Image string
	// Engine builds the containerized engine workload.
	Engine EngineFactory
}

// Container is one managed container instance.
type Container struct {
	id     string
	name   string
	image  string
	ip     string
	cgPath string

	rt *Runtime

	mu      sync.Mutex
	state   State
	eng     engine.Engine
	server  *simclock.Server
	port    int
	ready   chan struct{} // closed when engine init finishes
	initErr error
}

// ID returns the container's unique identifier.
func (c *Container) ID() string { return c.id }

// Name returns the container name.
func (c *Container) Name() string { return c.name }

// IP returns the container's address on the simulated bridge network.
func (c *Container) IP() string { return c.ip }

// Port returns the host TCP port the engine API is published on (0 until
// started).
func (c *Container) Port() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.port
}

// BaseURL returns the http endpoint of the published engine API.
func (c *Container) BaseURL() string {
	return fmt.Sprintf("http://127.0.0.1:%d", c.Port())
}

// State returns the lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Engine returns the containerized engine.
func (c *Container) Engine() engine.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng
}

// WaitReady blocks until the engine finishes initializing (or fails), or
// ctx is cancelled.
func (c *Container) WaitReady(ctx context.Context) error {
	c.mu.Lock()
	ready := c.ready
	c.mu.Unlock()
	if ready == nil {
		return fmt.Errorf("%w: container %s not started", ErrBadState, c.name)
	}
	cancelled := false
	simclock.GateFor(c.rt.clock).Block(func() {
		select {
		case <-ctx.Done():
			cancelled = true
		case <-ready:
		}
	})
	if cancelled {
		return ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.initErr != nil {
		return fmt.Errorf("%w: %w", ErrInitError, c.initErr)
	}
	return nil
}

// Info is a point-in-time inspection snapshot.
type Info struct {
	ID     string
	Name   string
	Image  string
	IP     string
	Port   int
	State  State
	Engine perfmodel.EngineKind
	Model  string
	Cgroup string
}

// Inspect returns the container's current metadata.
func (c *Container) Inspect() Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	info := Info{
		ID: c.id, Name: c.name, Image: c.image, IP: c.ip,
		Port: c.port, State: c.state, Cgroup: c.cgPath,
	}
	if c.eng != nil {
		info.Engine = c.eng.Kind()
		info.Model = c.eng.Model().Name
	}
	return info
}

// Runtime manages containers on one host.
type Runtime struct {
	clock   simclock.Clock
	testbed perfmodel.Testbed
	freezer *cgroup.Freezer
	driver  *cudackpt.Driver

	mu         sync.Mutex
	containers map[string]*Container // by name
	seq        int
}

// NewRuntime builds a runtime over the given substrates. The freezer and
// driver may be shared with other components (the engine controller uses
// the driver directly for checkpoints).
func NewRuntime(clock simclock.Clock, tb perfmodel.Testbed, fr *cgroup.Freezer, drv *cudackpt.Driver) *Runtime {
	rt := &Runtime{
		clock:      clock,
		testbed:    tb,
		freezer:    fr,
		driver:     drv,
		containers: make(map[string]*Container),
	}
	// Podman puts containers under machine.slice by convention.
	fr.Create("/machine.slice")
	return rt
}

// Driver exposes the GPU checkpoint driver (used by the engine
// controller).
func (rt *Runtime) Driver() *cudackpt.Driver { return rt.driver }

// Create creates a container from spec: allocates an identity, a cgroup,
// and the engine workload. The engine does not initialize until Start.
// ctx carries the active trace span.
func (rt *Runtime) Create(ctx context.Context, spec Spec) (ctr *Container, err error) {
	_, span := obs.Start(ctx, "ctr.create", obs.String("name", spec.Name))
	defer func() { span.EndErr(err) }()
	if spec.Name == "" {
		return nil, errors.New("container: spec missing Name")
	}
	if spec.Engine == nil {
		return nil, errors.New("container: spec missing Engine factory")
	}
	rt.mu.Lock()
	if _, dup := rt.containers[spec.Name]; dup {
		rt.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, spec.Name)
	}
	rt.seq++
	id := fmt.Sprintf("ctr-%04d-%s", rt.seq, spec.Name)
	ip := fmt.Sprintf("10.88.0.%d", 1+rt.seq%250)
	rt.mu.Unlock()

	rt.clock.Sleep(rt.testbed.ContainerCreate)

	cgPath := "/machine.slice/libpod-" + id
	if err := rt.freezer.Create(cgPath); err != nil {
		return nil, fmt.Errorf("container: creating cgroup: %w", err)
	}
	eng, err := spec.Engine(id)
	if err != nil {
		rt.freezer.Remove(cgPath)
		return nil, fmt.Errorf("container: building engine: %w", err)
	}

	c := &Container{
		id:     id,
		name:   spec.Name,
		image:  spec.Image,
		ip:     ip,
		cgPath: cgPath,
		rt:     rt,
		state:  StateCreated,
		eng:    eng,
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.containers[spec.Name]; dup {
		rt.freezer.Remove(cgPath)
		return nil, fmt.Errorf("%w: %s", ErrExists, spec.Name)
	}
	rt.containers[spec.Name] = c
	return c, nil
}

// Start launches the container: publishes the engine API on a host port
// and begins engine initialization in the background. Use WaitReady to
// block until the engine is serving.
func (rt *Runtime) Start(ctx context.Context, c *Container) (err error) {
	_, span := obs.Start(ctx, "ctr.start", obs.String("id", c.ID()))
	defer func() { span.EndErr(err) }()
	c.mu.Lock()
	// Only freshly created containers start: a stopped container's engine
	// process is gone, so (as with `podman run --rm` workloads) it must
	// be removed and recreated.
	if c.state != StateCreated {
		s := c.state
		c.mu.Unlock()
		return fmt.Errorf("%w: start from %s", ErrBadState, s)
	}
	c.mu.Unlock()

	rt.clock.Sleep(rt.testbed.ContainerStart)
	rt.clock.Sleep(time.Duration(float64(perfmodel.EngineBootOverhead(c.eng.Kind())) * rt.testbed.InitScale))

	srv, err := simclock.Listen(rt.clock, "127.0.0.1:0", c.eng.Handler())
	if err != nil {
		return fmt.Errorf("container: publishing port: %w", err)
	}

	ready := make(chan struct{})
	c.mu.Lock()
	c.server = srv
	_, port, _ := net.SplitHostPort(srv.Addr())
	c.port, _ = strconv.Atoi(port)
	c.ready = ready
	c.state = StateRunning
	eng := c.eng
	c.mu.Unlock()

	// Register the engine's GPU process with the checkpoint driver.
	if drv := rt.driver; drv != nil {
		// The device is embedded in the engine config; registration uses
		// the engine's view of its own weights.
		if err := drv.RegisterSharded(c.id, eng.Devices(), eng.Kind(), eng.Model().WeightBytes()); err != nil {
			// Already registered (restart): acceptable.
			if !errors.Is(err, cudackpt.ErrAlreadyExists) {
				srv.Close()
				return err
			}
		}
	}

	simclock.GateFor(rt.clock).Go(func() {
		_, initErr := eng.Init(context.Background())
		c.mu.Lock()
		c.initErr = initErr
		c.mu.Unlock()
		close(ready)
	})
	return nil
}

// Pause freezes the container's cgroup: the engine stops making
// progress. The lifecycle state commits only after the freezer write
// succeeds, so a failed freeze leaves the container Running. ctx
// carries the active trace span.
func (rt *Runtime) Pause(ctx context.Context, c *Container) (err error) {
	ctx, span := obs.Start(ctx, "ctr.pause", obs.String("id", c.ID()))
	defer func() { span.EndErr(err) }()
	c.mu.Lock()
	if c.state != StateRunning {
		s := c.state
		c.mu.Unlock()
		return fmt.Errorf("%w: pause from %s", ErrBadState, s)
	}
	eng := c.eng
	cg := c.cgPath
	c.mu.Unlock()

	if err := rt.freezer.Freeze(ctx, cg); err != nil {
		return err
	}
	c.mu.Lock()
	c.state = StatePaused
	c.mu.Unlock()
	eng.Gate().Pause()
	rt.clock.Sleep(rt.testbed.FreezeLatency)
	return nil
}

// Unpause thaws the container's cgroup. As with Pause, the state
// commits only after the freezer write succeeds: a failed thaw leaves
// the container Paused (and still frozen), so the caller can retry.
// ctx carries the active trace span.
func (rt *Runtime) Unpause(ctx context.Context, c *Container) (err error) {
	ctx, span := obs.Start(ctx, "ctr.unpause", obs.String("id", c.ID()))
	defer func() { span.EndErr(err) }()
	c.mu.Lock()
	if c.state != StatePaused {
		s := c.state
		c.mu.Unlock()
		return fmt.Errorf("%w: unpause from %s", ErrBadState, s)
	}
	eng := c.eng
	cg := c.cgPath
	c.mu.Unlock()

	if err := rt.freezer.Thaw(ctx, cg); err != nil {
		return err
	}
	c.mu.Lock()
	c.state = StateRunning
	c.mu.Unlock()
	rt.clock.Sleep(rt.testbed.ThawLatency)
	eng.Gate().Resume()
	return nil
}

// Stop terminates the container's workload and closes its published
// port. ctx carries the active trace span.
func (rt *Runtime) Stop(ctx context.Context, c *Container) (err error) {
	ctx, span := obs.Start(ctx, "ctr.stop", obs.String("id", c.ID()))
	defer func() { span.EndErr(err) }()
	c.mu.Lock()
	if c.state != StateRunning && c.state != StatePaused {
		s := c.state
		c.mu.Unlock()
		return fmt.Errorf("%w: stop from %s", ErrBadState, s)
	}
	wasPaused := c.state == StatePaused
	c.state = StateStopped
	srv := c.server
	eng := c.eng
	cg := c.cgPath
	c.server = nil
	c.mu.Unlock()

	if wasPaused {
		rt.freezer.Thaw(ctx, cg)
		eng.Gate().Resume()
	}
	rt.clock.Sleep(rt.testbed.ContainerStop)
	if srv != nil {
		srv.Close()
	}
	if rt.driver != nil {
		rt.driver.Unregister(c.id)
	}
	return eng.Shutdown()
}

// Remove deletes a stopped or created container.
func (rt *Runtime) Remove(c *Container) error {
	c.mu.Lock()
	if c.state != StateStopped && c.state != StateCreated {
		s := c.state
		c.mu.Unlock()
		return fmt.Errorf("%w: remove from %s", ErrBadState, s)
	}
	c.state = StateRemoved
	cg := c.cgPath
	name := c.name
	c.mu.Unlock()

	rt.freezer.Remove(cg)
	rt.mu.Lock()
	delete(rt.containers, name)
	rt.mu.Unlock()
	return nil
}

// Get returns the container with the given name.
func (rt *Runtime) Get(name string) (*Container, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.containers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return c, nil
}

// List returns all containers sorted by name.
func (rt *Runtime) List() []*Container {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Container, 0, len(rt.containers))
	for _, c := range rt.containers {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Shutdown stops and removes every container. It always runs to
// completion, so it uses a background context rather than taking one.
func (rt *Runtime) Shutdown() {
	for _, c := range rt.List() {
		switch c.State() {
		case StateRunning, StatePaused:
			rt.Stop(context.Background(), c)
		}
		if s := c.State(); s == StateStopped || s == StateCreated {
			rt.Remove(c)
		}
	}
}
