package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/config"
	"swapservellm/internal/engine"
	"swapservellm/internal/invariant"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// startChaosCluster builds and starts a cluster with a chaos injector
// and transition trace installed at construction.
func startChaosCluster(t *testing.T, cfg config.Cluster, scale float64, inj *chaos.Injector, tr *chaos.Trace) *Cluster {
	t.Helper()
	c, err := New(cfg, WithClock(simclock.NewScaled(testEpoch, scale)), WithChaos(inj), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// expectedTranscript computes the deterministic stream a request
// produces: identical on every replica, which is what makes skip-ahead
// resumption exact.
func expectedTranscript(req *ir.ChatCompletionRequest) (string, int) {
	var gen engine.Generator
	full := engine.PromptText(req.Messages)
	n := gen.CompletionLength(full, *req.Seed, 0)
	if n < req.MinTokens {
		n = req.MinTokens
	}
	var want strings.Builder
	for i := 0; i < n; i++ {
		want.WriteString(gen.Token(full, *req.Seed, i))
	}
	return want.String(), n
}

const seedForStream = int64(7)

// TestSSECutPointMatrix is the failover acceptance matrix: for each cut
// point k, the chaos plan "cluster.sse: after=k times=1" severs the
// relayed stream deterministically after exactly k delivered events.
// The gateway must resume on the replica with no duplicated and no
// missing chunks, so the client transcript is byte-identical to the
// uncut stream at every cut point.
func TestSSECutPointMatrix(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	for _, cut := range []int{0, 1, 2, 5, 15, 31} {
		t.Run(fmt.Sprintf("after=%d", cut), func(t *testing.T) {
			plan := chaos.MustParsePlan(fmt.Sprintf("seed=1; cluster.sse: after=%d times=1", cut))
			inj := chaos.NewInjector(plan)
			c := startChaosCluster(t, twoNodeConfig(model), 5000, inj, nil)

			seed := seedForStream
			req := &ir.ChatCompletionRequest{
				Model:     model,
				Messages:  []ir.Message{{Role: "user", Content: "stream across a cut"}},
				Seed:      &seed,
				MinTokens: 30,
			}
			want, n := expectedTranscript(req)

			var got strings.Builder
			var chunks int
			err := openai.NewClient(c.URL()).ChatCompletionStream(context.Background(), req,
				func(ch *ir.ChatCompletionChunk) error {
					chunks++
					for _, choice := range ch.Choices {
						got.WriteString(choice.Delta.Content)
					}
					return nil
				})
			if err != nil {
				t.Fatalf("stream did not survive cut after %d events: %v", cut, err)
			}
			if got.String() != want {
				t.Fatalf("transcript diverged at cut %d:\n got %q\nwant %q", cut, got.String(), want)
			}
			// Role preamble + n tokens + finish chunk, exactly once each.
			if wantChunks := n + 2; chunks != wantChunks {
				t.Fatalf("chunks = %d, want %d (duplicates or gaps across cut %d)", chunks, wantChunks, cut)
			}
			if fired := inj.Stats()[chaos.SiteSSE].Fired; fired != 1 {
				t.Fatalf("sse faults fired = %d, want 1", fired)
			}
			if retries := c.Registry().Counter("cross_node_retries").Value(); retries != 1 {
				t.Fatalf("cross_node_retries = %v, want 1", retries)
			}
		})
	}
}

// TestHeartbeatFaultCrashAndRejoin drives the registry state machine
// through a simulated crash/restart with heartbeat faults: three
// consecutive injected probe misses (occurrences 1, 3, 5 — node-b's
// slot in each sweep) mark only node-b down, traffic routes around it,
// and the next clean sweep rejoins it. The recorded transition trace
// must contain only legal edges.
func TestHeartbeatFaultCrashAndRejoin(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	tr := chaos.NewTrace()
	c := startChaosCluster(t, twoNodeConfig(model), 5000, nil, tr)

	// Install the injector after Start so the initial sweep does not
	// consume heartbeat occurrences: sweeps probe nodes in ID order, so
	// node-b's probes are occurrences 1, 3, 5.
	inj := chaos.NewInjector(chaos.MustParsePlan(
		"seed=1; cluster.heartbeat: after=1 times=1" +
			"; cluster.heartbeat: after=3 times=1" +
			"; cluster.heartbeat: after=5 times=1"))
	c.NodeRegistry().SetChaos(inj)

	reg := c.NodeRegistry()
	reg.Sweep()
	reg.Sweep()
	if n, _ := c.Node("node-b"); n.State() != NodeHealthy {
		t.Fatalf("node-b down before missLimit: %v", n.State())
	}
	reg.Sweep()
	if n, _ := c.Node("node-b"); n.State() != NodeDown {
		t.Fatalf("node-b state after 3 injected misses = %v", n.State())
	}
	if n, _ := c.Node("node-a"); n.State() != NodeHealthy {
		t.Fatalf("node-a state = %v, want healthy (faults targeted node-b)", n.State())
	}

	// The survivor keeps serving during the outage.
	gatewayChat(t, c.URL(), model, 2)
	if got := c.Registry().Counter("placement_node_node-a").Value(); got != 1 {
		t.Fatalf("node-a placements = %v", got)
	}

	// Probes succeed again: the node restarts into healthy.
	reg.Sweep()
	if n, _ := c.Node("node-b"); n.State() != NodeHealthy {
		t.Fatalf("node-b did not rejoin: %v", n.State())
	}

	var rep invariant.Report
	invariant.CheckNodeTrace(&rep, tr)
	if !rep.Ok() {
		t.Fatalf("node transition trace violations:\n%s", rep.String())
	}
	// The full crash/restart cycle must be on record for node-b.
	var sawDown, sawRejoin bool
	for _, ev := range tr.Events() {
		if ev.Subject == "node-b" && ev.To == "down" {
			sawDown = true
		}
		if ev.Subject == "node-b" && ev.From == "down" && ev.To == "healthy" {
			sawRejoin = true
		}
	}
	if !sawDown || !sawRejoin {
		t.Fatalf("trace missing crash/rejoin cycle: down=%v rejoin=%v\n%v", sawDown, sawRejoin, tr.Events())
	}
}

// TestProxyFaultFailsOverWithoutFencing: an injected proxy-level
// failure retries the request on the replica, but because the node
// itself still answers health probes it must not be fenced — transient
// gateway-side blips should not take capacity out of rotation.
func TestProxyFaultFailsOverWithoutFencing(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	inj := chaos.NewInjector(chaos.MustParsePlan("seed=1; cluster.proxy: times=1"))
	c := startChaosCluster(t, twoNodeConfig(model), 5000, inj, nil)

	resp := gatewayChat(t, c.URL(), model, 4)
	if resp.Usage.CompletionTokens != 4 {
		t.Fatalf("completion tokens = %d", resp.Usage.CompletionTokens)
	}
	reg := c.Registry()
	if got := reg.Counter("cross_node_retries").Value(); got != 1 {
		t.Fatalf("cross_node_retries = %v, want 1", got)
	}
	if got := reg.Counter("failover_successes").Value(); got != 1 {
		t.Fatalf("failover_successes = %v, want 1", got)
	}
	for _, id := range []string{"node-a", "node-b"} {
		if n, _ := c.Node(id); n.State() != NodeHealthy {
			t.Fatalf("%s fenced by a transient proxy fault: %v", id, n.State())
		}
	}
}

// TestRebalancerRechecksStateAtCommit is the regression test for the
// heartbeat/rebalancer race: a node marked down between the sweep's
// placement decision and the Promote/Demote commit must abort the
// migration instead of moving the only RAM-resident copy onto a dead
// node. Under the old ordering — placement checks only, no commit-time
// re-validation — this test fails with the image migrated to the down
// node.
func TestRebalancerRechecksStateAtCommit(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.Cluster.HeartbeatSec = 3600
	cfg.Nodes = []config.Node{
		{Name: "node-a", Models: []config.Model{
			{Name: "llama3.2:1b-fp16", Engine: "ollama"},
			{Name: "llama3.2:3b-fp16", Engine: "ollama"},
		}},
		{Name: "node-b", Models: []config.Model{
			{Name: "llama3.2:1b-fp16", Engine: "ollama"},
		}},
	}
	c := startCluster(t, cfg, 5000)

	nodeA, _ := c.Node("node-a")
	nodeB, _ := c.Node("node-b")
	drvA, drvB := nodeA.Server().Driver(), nodeB.Server().Driver()
	bA1, _ := nodeA.Server().Backend("llama3.2:1b-fp16")
	bB1, _ := nodeB.Server().Backend("llama3.2:1b-fp16")
	if err := drvB.Demote(context.Background(), bB1.Container().ID()); err != nil {
		t.Fatal(err)
	}

	rb := newRebalancer(c, time.Second, 0.75, drvA.HostUsed())
	// The race, made deterministic: node-b dies (heartbeat verdict)
	// after the sweep has selected it as the destination but before the
	// migration commits.
	rb.testHookBeforeCommit = func(dst *Node) { dst.transition(NodeDown) }

	if got := rb.Sweep(context.Background()); got != 0 {
		t.Fatalf("sweep migrated %d images onto a node that died pre-commit", got)
	}
	if loc, _ := drvA.ImageLocation(bA1.Container().ID()); loc.String() != "ram" {
		t.Fatalf("hot node lost its RAM copy to an aborted migration: %v", loc)
	}
	if loc, _ := drvB.ImageLocation(bB1.Container().ID()); loc.String() != "disk" {
		t.Fatalf("down node's replica moved: %v", loc)
	}
	if got := c.Registry().Counter("rebalance_aborted_stale").Value(); got < 1 {
		t.Fatalf("rebalance_aborted_stale = %v, want >= 1", got)
	}

	// Once the node rejoins, the same sweep succeeds.
	rb.testHookBeforeCommit = nil
	if !nodeB.transition(NodeHealthy) {
		t.Fatal("node-b could not rejoin")
	}
	if got := rb.Sweep(context.Background()); got != 1 {
		t.Fatalf("post-rejoin sweep migrated %d images, want 1", got)
	}
	if loc, _ := drvB.ImageLocation(bB1.Container().ID()); loc.String() != "ram" {
		t.Fatalf("node-b image after migration = %v, want ram", loc)
	}
}
