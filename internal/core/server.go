package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"swapservellm/internal/cgroup"
	"swapservellm/internal/chaos"
	"swapservellm/internal/ckptstore"
	"swapservellm/internal/config"
	"swapservellm/internal/container"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/engine"
	"swapservellm/internal/gpu"
	"swapservellm/internal/metrics"
	"swapservellm/internal/models"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/sched"
	"swapservellm/internal/simclock"
	"swapservellm/internal/storage"
)

// Options carries the Server's clock and optional overrides for its
// construction; zero values of the other fields select defaults.
type Options struct {
	// Clock is the simulation clock (required): Virtual for experiments
	// and tests, Scaled or Real for the daemons.
	Clock simclock.Clock
	// Registry collects metrics (default: a fresh registry).
	Registry *metrics.Registry
	// Policy overrides the preemption policy (default: demand-aware).
	Policy PreemptionPolicy
	// GPUCount overrides the topology size (default: large enough for the
	// highest configured GPU index, at least the testbed's count).
	GPUCount int
	// Chaos, when set, arms deterministic fault injection in every
	// substrate layer (checkpoint driver, cgroup freezer, model store).
	Chaos *chaos.Injector
	// Trace, when set, receives the driver's state-transition audit log
	// for invariant checking.
	Trace *chaos.Trace
	// Tracer, when set, records swap-lifecycle spans; requests and swaps
	// started under this server install it on their contexts. Exported at
	// /debug/trace as Chrome trace_event JSON.
	Tracer *obs.Tracer
	// TTL is the reaper's keep-alive policy (internal/sched provides
	// fixed and predictive implementations). Default: a sched.FixedTTL
	// of keep_alive_sec, or no reaping when that is unset. The reaper
	// runs whenever a policy is in place.
	TTL sched.TTLPolicy
}

// Server is the assembled SwapServeLLM deployment: substrates, backends,
// task manager, scheduler, controller, workers, and the API router.
type Server struct {
	cfg     config.Config
	clock   simclock.Clock
	testbed perfmodel.Testbed
	reg     *metrics.Registry
	tracer  *obs.Tracer

	topo    *gpu.Topology
	freezer *cgroup.Freezer
	driver  *cudackpt.Driver
	rt      *container.Runtime
	store   *storage.ModelStore

	tm    *TaskManager
	ctrl  *Controller
	sched *Scheduler

	ttl      sched.TTLPolicy // nil: nothing is reaped
	demand   *sched.Predictor
	chaosInj *chaos.Injector

	mu        sync.Mutex
	backends  map[string]*Backend // the model-name index of §3.2
	sorted    []*Backend          // backends by name, replaced whole on each add
	workers   []*worker
	loops     []*simclock.Loop
	initCache *engine.InitCache

	httpServer *simclock.Server
	url        string   // "http://" + httpServer.Addr(), set with httpServer
	base       *url.URL // url parsed
	started    bool
}

// ErrNoClock rejects a Server or cluster built without a clock: which
// timeline a deployment runs on is the caller's choice, never a silent
// wall-driven default.
var ErrNoClock = errors.New("no simulation clock given")

// New validates the configuration and assembles a server. Call Start to
// initialize backends and begin serving.
func New(cfg config.Config, opts Options) (*Server, error) {
	if err := cfg.Validate(models.Default()); err != nil {
		return nil, err
	}
	tb, _ := perfmodel.TestbedByName(cfg.Testbed)

	clock := opts.Clock
	if clock == nil {
		return nil, fmt.Errorf("core: %w (Options.Clock)", ErrNoClock)
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}

	gpuCount := opts.GPUCount
	for _, m := range cfg.Models {
		for _, id := range m.GPUs {
			if id+1 > gpuCount {
				gpuCount = id + 1
			}
		}
	}
	if gpuCount < tb.GPUCount {
		gpuCount = tb.GPUCount
	}

	topo := gpu.NewTopology(tb.GPU, gpuCount, tb.GPUMemBytes)
	freezer := cgroup.NewFreezer()
	var hostCap int64
	if cfg.Global.SnapshotHostCapGiB > 0 {
		hostCap = int64(cfg.Global.SnapshotHostCapGiB * float64(int64(1)<<30))
	}
	driver := cudackpt.NewDriver(clock, tb, hostCap)
	if cfg.Global.SnapshotSpill {
		driver.EnableSpill()
	}
	if cfg.Global.SwapChunkMiB > 0 {
		driver.SetChunkBytes(int64(cfg.Global.SwapChunkMiB) << 20)
	}
	var ckpts *ckptstore.Store
	if cfg.Global.CkptStore {
		ckpts = ckptstore.New(clock, tb,
			ckptstore.WithRegistry(reg),
			ckptstore.WithNodeID(cfg.Listen),
			ckptstore.WithHostCap(hostCap),
		)
		driver.AttachStore(ckpts)
	}
	rt := container.NewRuntime(clock, tb, freezer, driver)
	store := storage.NewModelStore(clock, tb)
	if opts.Chaos != nil {
		driver.SetChaos(opts.Chaos)
		freezer.SetChaos(opts.Chaos)
		store.SetChaos(opts.Chaos)
		if ckpts != nil {
			ckpts.SetChaos(opts.Chaos)
		}
	}
	if opts.Trace != nil {
		driver.SetTrace(opts.Trace)
	}

	tracer := opts.Tracer
	if tracer != nil {
		tracer.SetRegistry(reg)
	}

	tm := NewTaskManager(clock, topo)
	ctrl := NewController(clock,
		WithTestbed(tb),
		WithRuntime(rt),
		WithTaskManager(tm),
		WithPolicy(opts.Policy),
		WithRegistry(reg),
		WithTracer(tracer),
	)
	ctrl.SetPipelined(cfg.Global.PipelinedSwap)
	tm.SetEvictor(ctrl)
	ttl := opts.TTL
	if ttl == nil && cfg.KeepAlive() > 0 {
		ttl = &sched.FixedTTL{TTL: cfg.KeepAlive()}
	}
	scheduler := NewScheduler(clock, tm, ctrl, reg)
	// Every checkpoint chunk that frees device capacity immediately
	// re-runs the grant loop, so a pending reservation can be granted
	// incrementally before the victim's checkpoint finishes.
	driver.OnChunk(func(ev cudackpt.ChunkEvent) {
		if ev.Dir == perfmodel.DirD2H {
			tm.NotifyFreed()
		}
	})

	s := &Server{
		cfg:      cfg,
		clock:    clock,
		testbed:  tb,
		reg:      reg,
		tracer:   tracer,
		topo:     topo,
		freezer:  freezer,
		driver:   driver,
		rt:       rt,
		store:    store,
		tm:       tm,
		ctrl:     ctrl,
		sched:    scheduler,
		ttl:      ttl,
		demand:   sched.NewPredictor(0, 0),
		chaosInj: opts.Chaos,
		backends: make(map[string]*Backend),
	}
	if cfg.Global.CompileCache {
		s.initCache = engine.NewInitCache()
	}
	return s, nil
}

// Clock returns the server's simulation clock.
func (s *Server) Clock() simclock.Clock { return s.clock }

// Registry returns the metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Tracer returns the lifecycle tracer (nil when tracing is off).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// traceCtx installs the server's tracer on ctx so spans started below
// (scheduler, controller, driver) are recorded. A no-op without a
// tracer or when ctx already carries one.
func (s *Server) traceCtx(ctx context.Context) context.Context {
	if s.tracer == nil || obs.TracerFrom(ctx) != nil {
		return ctx
	}
	return obs.WithTracer(ctx, s.tracer)
}

// Testbed returns the hardware profile.
func (s *Server) Testbed() perfmodel.Testbed { return s.testbed }

// TaskManager exposes the task manager (for tests and tools).
func (s *Server) TaskManager() *TaskManager { return s.tm }

// Controller exposes the engine controller (for tests and tools).
func (s *Server) Controller() *Controller { return s.ctrl }

// Scheduler exposes the scheduler (for tests and tools).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Topology exposes the GPU topology.
func (s *Server) Topology() *gpu.Topology { return s.topo }

// Driver exposes the GPU checkpoint driver (for tests and tools).
func (s *Server) Driver() *cudackpt.Driver { return s.driver }

// Freezer exposes the cgroup freezer (for tests and tools).
func (s *Server) Freezer() *cgroup.Freezer { return s.freezer }

// Store exposes the model store (for tests and tools).
func (s *Server) Store() *storage.ModelStore { return s.store }

// CkptStore exposes the content-addressed checkpoint store (nil unless
// the deployment enables ckpt_store). The cluster layer uses it to wire
// peer-to-peer chunk fetch across nodes.
func (s *Server) CkptStore() *ckptstore.Store { return s.driver.Store() }

// Backend returns the backend serving the named model.
func (s *Server) Backend(model string) (*Backend, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.backends[model]
	return b, ok
}

// Backends returns all backends sorted by name. The slice is shared:
// callers must not modify it.
func (s *Server) Backends() []*Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sorted
}

// Start runs the initialization sequence of §3.2: stage weights, create
// and run one container per configured model, wait for engine
// initialization, snapshot the GPU state, and leave each backend paused
// (unless keep-warm). Then the request handler and router begin serving.
func (s *Server) Start(ctx context.Context) error {
	ctx = s.traceCtx(ctx)
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("core: server already started")
	}
	s.started = true
	s.mu.Unlock()

	catalog := models.Default()

	// Stage model weights into the configured tiers (the model-pull step).
	for _, mc := range s.cfg.Models {
		m := catalog.MustLookup(mc.Name)
		if err := engine.StageWeights(s.store, perfmodel.StorageTier(mc.StorageTier), m); err != nil {
			return fmt.Errorf("core: staging weights for %s: %w", mc.Name, err)
		}
	}

	// Initialize backends sequentially: engines like vLLM claim most of
	// the device during initialization, so concurrent cold starts would
	// spuriously OOM. Each backend is snapshotted and paused before the
	// next begins.
	for i := range s.cfg.Models {
		if err := s.initBackend(ctx, &s.cfg.Models[i]); err != nil {
			return fmt.Errorf("core: initializing %s: %w", s.cfg.Models[i].Name, err)
		}
	}

	s.startLoops()

	// Start the router.
	srv, err := simclock.Listen(s.clock, s.cfg.Listen, newRouter(s).handler())
	if err != nil {
		return fmt.Errorf("core: listening on %s: %w", s.cfg.Listen, err)
	}
	s.httpServer = srv
	s.url = "http://" + srv.Addr()
	s.base = &url.URL{Scheme: "http", Host: srv.Addr()}
	return nil
}

// initBackend creates, starts, initializes, and (by default) snapshots
// one backend.
func (s *Server) initBackend(ctx context.Context, mc *config.Model) error {
	catalog := models.Default()
	m := catalog.MustLookup(mc.Name)
	kind := perfmodel.EngineKind(mc.Engine)
	gpus := normalizeGPUs(mc.GPUs)
	devices := make([]*gpu.Device, len(gpus))
	for i, id := range gpus {
		dev, err := s.topo.Device(id)
		if err != nil {
			return err
		}
		devices[i] = dev
	}

	spec := container.Spec{
		Name:  sanitizeName(mc.Name),
		Image: mc.Image,
		Engine: func(owner string) (engine.Engine, error) {
			return engine.New(kind, engine.Config{
				Owner:                owner,
				Model:                m,
				Testbed:              s.testbed,
				Clock:                s.clock,
				Devices:              devices,
				Store:                s.store,
				Tier:                 perfmodel.StorageTier(mc.StorageTier),
				GPUMemoryUtilization: mc.GPUMemoryUtilization,
				InitCache:            s.initCache,
			})
		},
	}
	ctr, err := s.rt.Create(ctx, spec)
	if err != nil {
		return err
	}
	// Name the process's weight content after the model, so replicas of
	// one model — on this node or a peer — deduplicate weight chunks in
	// the checkpoint store. Harmless without a store attached.
	_ = s.driver.SetContentKey(ctr.ID(), mc.Name)

	b := &Backend{
		name:         mc.Name,
		model:        m,
		engine:       kind,
		gpus:         gpus,
		ctr:          ctr,
		queue:        make(chan *queuedRequest, mc.QueueCapacity),
		requests:     s.reg.CounterHandle("requests_" + mc.Name),
		useSleepMode: s.cfg.Global.UseSleepMode,
		keepWarm:     mc.KeepWarm,
	}
	b.setState(BackendInitializing)
	s.observeArrival(b, s.clock.Now())

	s.mu.Lock()
	s.backends[mc.Name] = b
	// Copy on write: a slice handed out by Backends is never modified.
	sorted := append(slices.Clip(s.sorted), b)
	slices.SortFunc(sorted, func(x, y *Backend) int { return strings.Compare(x.name, y.name) })
	s.sorted = sorted
	s.mu.Unlock()
	s.ctrl.RegisterBackend(b)

	if err := s.rt.Start(ctx, ctr); err != nil {
		b.setState(BackendFailed)
		return err
	}
	initCtx, stop := ctx, func() {}
	if t := mc.InitTimeout(); t > 0 {
		initCtx, stop = clockTimeout(ctx, s.clock, t)
	}
	err = ctr.WaitReady(initCtx)
	stop()
	if err != nil {
		b.setState(BackendFailed)
		if cause := context.Cause(initCtx); errors.Is(cause, context.DeadlineExceeded) {
			err = fmt.Errorf("engine not ready within init_timeout_sec (%v): %w", mc.InitTimeout(), cause)
		}
		return err
	}
	b.setState(BackendRunning)
	b.lastReady.Store(s.clock.Now().UnixNano())
	b.requiredBytes.Store(ctr.Engine().GPUBytes())

	// Snapshot immediately after initialization and leave the container
	// paused (§3.2), unless the deployment keeps this model warm.
	if !b.keepWarm {
		if err := s.ctrl.SwapOut(ctx, b); err != nil {
			b.setState(BackendFailed)
			return err
		}
	}

	// Start the model worker.
	w := newWorker(b, s.sched, s.clock, s.reg)
	s.mu.Lock()
	s.workers = append(s.workers, w)
	s.mu.Unlock()
	simclock.GateFor(s.clock).Go(w.run)
	return nil
}

// Addr returns the router's listen address (empty before Start).
func (s *Server) Addr() string {
	if s.httpServer == nil {
		return ""
	}
	return s.httpServer.Addr()
}

// URL returns the router's base URL ("http://" before Start).
func (s *Server) URL() string {
	if s.url == "" {
		return "http://"
	}
	return s.url
}

// Endpoint returns the router's base URL parsed (nil before Start).
// Callers share it and must not write to it.
func (s *Server) Endpoint() *url.URL { return s.base }

// Handler returns the router handler (usable without a listener).
func (s *Server) Handler() http.Handler { return newRouter(s).handler() }

// Shutdown stops the router, the background loops, the workers, and
// every container.
func (s *Server) Shutdown() {
	if s.httpServer != nil {
		s.httpServer.Close()
	}
	for _, l := range s.loops {
		l.Stop()
	}
	s.mu.Lock()
	workers := s.workers
	s.workers = nil
	s.mu.Unlock()
	for _, w := range workers {
		close(w.stop)
	}
	// Wait for the dispatch loops to exit so no registered goroutine of
	// this server outlives Shutdown — experiments that run several
	// servers against one shared Virtual clock depend on a clean slate
	// between trials. The wait needs no clock advance (a closed stop
	// channel makes every loop immediately runnable), but the receive
	// still parks this goroutine, so shed the run token while draining.
	drained := func() bool {
		for _, w := range workers {
			if !simclock.Closed(w.done) {
				return false
			}
		}
		return true
	}
	simclock.GateFor(s.clock).BlockOn(s, drained, func() {
		for _, w := range workers {
			<-w.done
		}
	})
	s.rt.Shutdown()
}

// clockTimeout returns a child of ctx that is cancelled, with cause
// context.DeadlineExceeded, once d has passed on clock, and a stop
// function that releases it. The limit is a registered wait on the
// clock, so under Virtual it falls at an exact virtual instant.
func clockTimeout(ctx context.Context, clock simclock.Clock, d time.Duration) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(ctx)
	stopped := make(chan struct{})
	gate := simclock.GateFor(clock)
	gate.Go(func() {
		if gate.Wait(d, stopped, ctx.Done()) < 0 {
			cancel(context.DeadlineExceeded)
		}
	})
	return ctx, func() {
		close(stopped)
		cancel(nil)
	}
}

// sanitizeName converts a model name into a container-safe name.
func sanitizeName(model string) string {
	out := make([]rune, 0, len(model))
	for _, r := range model {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			out = append(out, r)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
