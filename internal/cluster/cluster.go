package cluster

import (
	"context"
	"fmt"
	"net/http"

	"swapservellm/internal/chaos"
	"swapservellm/internal/ckptstore"
	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/metrics"
	"swapservellm/internal/models"
	"swapservellm/internal/obs"
	"swapservellm/internal/proxy"
	"swapservellm/internal/sched"
	"swapservellm/internal/simclock"
)

// proxyCacheEntries bounds the gateway's response cache (the proxy
// section's cache_disabled turns it off).
const proxyCacheEntries = 256

// Options tunes cluster construction.
type Options struct {
	// Clock is the shared simulation clock for every node (required,
	// set with WithClock).
	Clock simclock.Clock
	// Registry collects cluster/gateway metrics; each node keeps its own
	// registry (default: a fresh registry).
	Registry *metrics.Registry
	// Policy overrides the configured placement policy.
	Policy Policy
	// Seed seeds the random placement baseline (default 1).
	Seed int64
	// Catalog overrides the model catalog (default: models.Default()).
	Catalog *models.Catalog
	// Chaos, when set, is the shared fault injector: it is installed on
	// the registry (heartbeat faults), the gateway (proxy/SSE faults),
	// and every node's driver, freezer, and store — one seeded plan
	// covers cluster- and node-level sites.
	Chaos *chaos.Injector
	// Trace, when set, receives node and checkpoint state transitions
	// for invariant checking.
	Trace *chaos.Trace
	// Tracer, when set, records swap-lifecycle spans cluster-wide: the
	// gateway, the rebalancer, and every node share it, so one trace
	// shows a request's placement, failover, and node-side swap work.
	// Exported at the gateway's /debug/trace.
	Tracer *obs.Tracer
}

// Option mutates Options during New (the functional mirror of
// core.ControllerOption).
type Option func(*Options)

// WithClock sets the shared simulation clock.
func WithClock(clock simclock.Clock) Option { return func(o *Options) { o.Clock = clock } }

// WithRegistry sets the cluster/gateway metrics registry.
func WithRegistry(reg *metrics.Registry) Option { return func(o *Options) { o.Registry = reg } }

// WithPolicy overrides the configured placement policy.
func WithPolicy(p Policy) Option { return func(o *Options) { o.Policy = p } }

// WithSeed seeds the random placement baseline.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithCatalog overrides the model catalog.
func WithCatalog(cat *models.Catalog) Option { return func(o *Options) { o.Catalog = cat } }

// WithChaos installs the shared fault injector.
func WithChaos(inj *chaos.Injector) Option { return func(o *Options) { o.Chaos = inj } }

// WithTrace installs the state-transition audit log.
func WithTrace(tr *chaos.Trace) Option { return func(o *Options) { o.Trace = tr } }

// WithTracer installs the cluster-wide lifecycle tracer.
func WithTracer(t *obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// Cluster is the assembled multi-node deployment: the member nodes
// (each a full core.Server on its own simulated hardware), the node
// registry with its heartbeat loop, the placement policy, the gateway,
// and the snapshot rebalancer — all sharing one simulation clock.
type Cluster struct {
	cfg      config.Cluster
	clock    simclock.Clock
	reg      *metrics.Registry
	policy   Policy
	rt       http.RoundTripper // the clock's transport, driven directly
	chaosInj *chaos.Injector
	tracer   *obs.Tracer
	front    *proxy.Front

	registry   *NodeRegistry
	nodes      []*Node
	rebal      *rebalancer
	rebalLoop  *simclock.Loop // nil without a rebalancer
	sched      *schedState
	retryLimit int

	httpServer *simclock.Server

	mu      simclock.Mutex
	started bool
}

// New builds a cluster from its configuration, applying functional
// options. Nodes are constructed but not started.
func New(cfg config.Cluster, options ...Option) (*Cluster, error) {
	var opts Options
	for _, opt := range options {
		if opt != nil {
			opt(&opts)
		}
	}
	catalog := opts.Catalog
	if catalog == nil {
		catalog = models.Default()
	}
	if err := cfg.Validate(catalog); err != nil {
		return nil, err
	}
	clock := opts.Clock
	if clock == nil {
		return nil, fmt.Errorf("cluster: %w (WithClock)", core.ErrNoClock)
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	policy := opts.Policy
	if policy == nil {
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		p, ok := PolicyByName(cfg.Cluster.Placement, seed)
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownPolicy, cfg.Cluster.Placement)
		}
		policy = p
	}

	c := &Cluster{
		cfg:        cfg,
		clock:      clock,
		reg:        reg,
		policy:     policy,
		rt:         simclock.Transport(clock),
		chaosInj:   opts.Chaos,
		tracer:     opts.Tracer,
		retryLimit: cfg.Cluster.RetryLimit,
		registry:   NewNodeRegistry(clock, reg, cfg.Heartbeat(), cfg.Cluster.HeartbeatMissLimit),
	}
	c.registry.SetChaos(opts.Chaos)
	c.registry.SetTrace(opts.Trace)

	// The multi-protocol front door: one endpoint table and response
	// cache shared by every gateway handler. The chaos injector covers
	// the proxy.translate and proxy.cache sites.
	cacheEntries := proxyCacheEntries
	if cfg.Proxy.CacheDisabled {
		cacheEntries = 0
	}
	c.front = proxy.New(
		proxy.WithCacheEntries(cacheEntries),
		proxy.WithChaos(opts.Chaos),
		proxy.WithRegistry(reg),
		proxy.WithClock(clock),
	)

	// Predictive scheduling (nil when no classes are declared). Built
	// before the nodes so the TTL policy reaches each node's reaper.
	schedSt, err := buildSched(cfg, catalog, c)
	if err != nil {
		return nil, err
	}
	c.sched = schedSt

	var ttl sched.TTLPolicy
	if schedSt != nil {
		ttl = schedSt.ttl
	}
	capBytes := cfg.Global.SnapshotHostCapBytes()
	for i := range cfg.Nodes {
		nc := cfg.Nodes[i]
		srv, err := core.New(cfg.NodeConfig(i), core.Options{
			Clock:    clock,
			GPUCount: nc.GPUCount,
			Chaos:    opts.Chaos,
			Trace:    opts.Trace,
			Tracer:   opts.Tracer,
			TTL:      ttl,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %q: %w", nc.Name, err)
		}
		n := newNode(nc.Name, srv, capBytes)
		c.nodes = append(c.nodes, n)
		c.registry.Add(n)
	}

	if every := cfg.RebalanceEvery(); every > 0 {
		c.rebal = newRebalancer(c, every, cfg.Cluster.RebalanceHighWater, capBytes)
	}

	// Wire peer-to-peer chunk fetch: with ckpt_store enabled, every
	// node's content-addressed checkpoint store sees the other nodes'
	// stores as restore sources, so a promotion can pull a chunk from a
	// peer's host RAM (over the fabric) faster than from its own disk.
	stores := make([]*ckptstore.Store, len(c.nodes))
	for i, n := range c.nodes {
		stores[i] = n.Server().CkptStore()
	}
	for i, st := range stores {
		if st == nil {
			continue
		}
		var peers []ckptstore.Peer
		for j, p := range stores {
			if j != i && p != nil {
				peers = append(peers, p)
			}
		}
		st.SetPeers(peers)
	}
	return c, nil
}

// Start boots every node (concurrently — each initializes its own
// backends), then the heartbeat loop, the rebalancer, and finally the
// gateway listener.
func (c *Cluster) Start(ctx context.Context) error {
	ctx = c.traceCtx(ctx)
	gate := simclock.GateFor(c.clock)
	// c.mu is held across clock waits (node boots, subsystem drains), so
	// it is clock-aware: a waiter sheds its run token.
	c.mu.Lock(gate)
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("cluster: already started")
	}

	boots := simclock.NewGroup(c.clock)
	errs := make([]error, len(c.nodes))
	for i, n := range c.nodes {
		boots.Go(func() { errs[i] = n.Server().Start(ctx) })
	}
	boots.Wait()
	for i, err := range errs {
		if err != nil {
			c.shutdownNodesLocked()
			return fmt.Errorf("cluster: starting node %q: %w", c.nodes[i].ID(), err)
		}
	}

	c.registry.Start()
	if c.rebal != nil {
		c.rebalLoop = simclock.Every(c.clock, c.rebal.interval, func() {
			c.rebal.Sweep(context.Background())
		})
	}
	if c.sched != nil && c.sched.pw != nil {
		c.sched.pw.Run(c.clock)
	}

	//swaplint:block reason=Listen binds a socket and returns; its handler runs on serve goroutines, never under c.mu
	srv, err := simclock.Listen(c.clock, c.cfg.Listen, (&gateway{c: c, front: c.front}).handler())
	if err != nil {
		if c.sched != nil && c.sched.pw != nil {
			c.sched.pw.Halt()
		}
		c.registry.Stop()
		c.rebalLoop.Stop()
		c.shutdownNodesLocked()
		return fmt.Errorf("cluster: gateway listen: %w", err)
	}
	c.httpServer = srv
	c.started = true
	return nil
}

// Shutdown stops the gateway, background loops, and every node.
func (c *Cluster) Shutdown() {
	c.mu.Lock(simclock.GateFor(c.clock))
	defer c.mu.Unlock()
	if !c.started {
		return
	}
	c.started = false
	c.httpServer.Close()
	if c.sched != nil && c.sched.pw != nil {
		c.sched.pw.Halt()
	}
	c.rebalLoop.Stop()
	c.registry.Stop()
	c.shutdownNodesLocked()
}

func (c *Cluster) shutdownNodesLocked() {
	for _, n := range c.nodes {
		n.Server().Shutdown()
	}
}

// Addr returns the gateway's bound address (empty before Start).
func (c *Cluster) Addr() string {
	if c.httpServer == nil {
		return ""
	}
	return c.httpServer.Addr()
}

// URL returns the gateway's base URL.
func (c *Cluster) URL() string { return "http://" + c.Addr() }

// Clock returns the shared simulation clock.
func (c *Cluster) Clock() simclock.Clock { return c.clock }

// Registry returns the cluster/gateway metrics registry.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// Tracer returns the cluster-wide lifecycle tracer (nil when off).
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// traceCtx installs the cluster's tracer on ctx so spans started in the
// gateway and rebalancer (and in the nodes they call into) record.
func (c *Cluster) traceCtx(ctx context.Context) context.Context {
	if c.tracer == nil || obs.TracerFrom(ctx) != nil {
		return ctx
	}
	return obs.WithTracer(ctx, c.tracer)
}

// Front returns the multi-protocol front door (endpoint table and
// response cache), for experiments and operator tooling.
func (c *Cluster) Front() *proxy.Front { return c.front }

// NodeRegistry returns the membership registry.
func (c *Cluster) NodeRegistry() *NodeRegistry { return c.registry }

// Nodes returns the members sorted by ID.
func (c *Cluster) Nodes() []*Node { return c.registry.Nodes() }

// Node looks up a member by ID.
func (c *Cluster) Node(id string) (*Node, bool) { return c.registry.Node(id) }

// Policy returns the active placement policy.
func (c *Cluster) Policy() Policy { return c.policy }

// Rebalance forces one rebalancer sweep (0 if the rebalancer is
// disabled), for tests and operator tooling.
func (c *Cluster) Rebalance(ctx context.Context) int {
	if c.rebal == nil {
		return 0
	}
	return c.rebal.Sweep(ctx)
}

// KillNode abruptly shuts a node's server down without touching its
// registry state — simulating a node crash. The heartbeat loop (or the
// gateway's passive detection) will mark it down.
func (c *Cluster) KillNode(id string) error {
	n, ok := c.registry.Node(id)
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownNode, id)
	}
	n.Server().Shutdown()
	return nil
}
