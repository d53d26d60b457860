package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/engine"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

var testEpoch = time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)

// twoNodeConfig builds a cluster config with the model replicated on
// both nodes.
func twoNodeConfig(model string) config.Cluster {
	cfg := config.DefaultCluster()
	// Heartbeats are driven explicitly via Sweep in tests; keep the
	// interval long so the background loop stays out of the way.
	cfg.Cluster.HeartbeatSec = 3600
	cfg.Nodes = []config.Node{
		{Name: "node-a", Models: []config.Model{{Name: model, Engine: "ollama"}}},
		{Name: "node-b", Models: []config.Model{{Name: model, Engine: "ollama"}}},
	}
	return cfg
}

// TestNewRequiresClock: a valid cluster config without a clock is
// rejected, not silently given a wall-driven one.
func TestNewRequiresClock(t *testing.T) {
	cfg := twoNodeConfig("llama3.2:1b-fp16")
	if _, err := New(cfg); !errors.Is(err, core.ErrNoClock) {
		t.Fatalf("New without a clock: err = %v, want core.ErrNoClock", err)
	}
	c, err := New(cfg, WithClock(simclock.NewVirtual(testEpoch)))
	if err != nil {
		t.Fatalf("New with a clock: %v", err)
	}
	c.Shutdown()
}

// startCluster builds and starts a cluster on a Virtual clock, tearing
// it down with the test. The calling test goroutine is registered on
// the clock's gate until the test's cleanups finish, the shutdown
// included, so time moves only while the test waits on the cluster.
func startCluster(t *testing.T, cfg config.Cluster, opts ...Option) *Cluster {
	t.Helper()
	clock := simclock.NewVirtual(testEpoch)
	gate := clock.Gate()
	gate.Enter()
	t.Cleanup(gate.Exit)
	c, err := New(cfg, append([]Option{WithClock(clock)}, opts...)...)
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

// httpClient returns an HTTP client on c's clock: requests to the
// gateway are served in-process.
func httpClient(c *Cluster) *http.Client {
	return &http.Client{Transport: simclock.Transport(c.Clock())}
}

// gatewayClient returns an OpenAI client of c's gateway on c's clock.
func gatewayClient(c *Cluster) *openai.Client {
	cli := openai.NewClient(c.URL())
	cli.Clock = c.Clock()
	return cli
}

func gatewayChat(t *testing.T, c *Cluster, model string, maxTokens int) *ir.ChatCompletionResponse {
	t.Helper()
	seed := int64(7)
	resp, err := gatewayClient(c).ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:     model,
		Messages:  []ir.Message{{Role: "user", Content: "hello cluster"}},
		Seed:      &seed,
		MaxTokens: maxTokens,
	})
	if err != nil {
		t.Fatalf("chat via gateway: %v", err)
	}
	return resp
}

func TestClusterServesAndReportsStatus(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model))

	resp := gatewayChat(t, c, model, 4)
	if resp.Usage.CompletionTokens != 4 {
		t.Fatalf("completion tokens = %d", resp.Usage.CompletionTokens)
	}
	if got := c.Registry().Counter("gateway_requests_total").Value(); got != 1 {
		t.Fatalf("gateway_requests_total = %v", got)
	}

	// Status reports both nodes healthy with the model deployed.
	hr, err := httpClient(c).Get(c.URL() + "/admin/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var st struct {
		Placement string   `json:"placement"`
		Nodes     []Report `json:"nodes"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Placement != "locality" || len(st.Nodes) != 2 {
		t.Fatalf("status = %+v", st)
	}
	for _, n := range st.Nodes {
		if n.State != "healthy" {
			t.Fatalf("node %s state = %s", n.ID, n.State)
		}
		if len(n.Models) != 1 || n.Models[0].Model != model {
			t.Fatalf("node %s inventory = %+v", n.ID, n.Models)
		}
	}
}

func TestLocalityRoutingSticksToWarmNode(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model))

	// First request: both nodes hold only a RAM snapshot (init leaves
	// backends swapped out), so the placement is a miss that lands on
	// node-a by deterministic tie-break and swaps it in.
	gatewayChat(t, c, model, 2)
	// Subsequent requests must stick to the now-warm node-a. Each asks
	// for a distinct token budget so the response cache (keyed on the
	// canonical body) misses and placement actually runs.
	for i := 0; i < 3; i++ {
		gatewayChat(t, c, model, 3+i)
	}

	reg := c.Registry()
	if got := reg.Counter("placement_node_node-a").Value(); got != 4 {
		t.Fatalf("node-a placements = %v, want 4", got)
	}
	if got := reg.Counter("placement_node_node-b").Value(); got != 0 {
		t.Fatalf("node-b placements = %v, want 0", got)
	}
	if hits := reg.Counter("placement_hits").Value(); hits != 3 {
		t.Fatalf("placement_hits = %v, want 3 (first was a cold miss)", hits)
	}
	if ratio := reg.Gauge("placement_hit_ratio").Value(); ratio != 0.75 {
		t.Fatalf("placement_hit_ratio = %v, want 0.75", ratio)
	}
}

func TestDrainExcludesNode(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model))

	// Drain node-a (the deterministic first choice) via the admin API.
	resp, err := httpClient(c).Post(c.URL()+"/admin/v1/cluster/drain?node=node-a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n, _ := c.Node("node-a"); n.State() != NodeDraining {
		t.Fatalf("node-a state = %v", n.State())
	}

	for i := 0; i < 3; i++ {
		gatewayChat(t, c, model, 2+i) // distinct bodies: no cache hits
	}
	if got := c.Registry().Counter("placement_node_node-b").Value(); got != 3 {
		t.Fatalf("node-b placements = %v, want all 3 while node-a drains", got)
	}

	// Undrain restores eligibility.
	resp, err = httpClient(c).Post(c.URL()+"/admin/v1/cluster/undrain?node=node-a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n, _ := c.Node("node-a"); n.State() != NodeHealthy {
		t.Fatalf("node-a state after undrain = %v", n.State())
	}
}

func TestModelsUnionAcrossNodes(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.Cluster.HeartbeatSec = 3600
	cfg.Nodes = []config.Node{
		{Name: "node-a", Models: []config.Model{{Name: "llama3.2:1b-fp16", Engine: "ollama"}}},
		{Name: "node-b", Models: []config.Model{{Name: "deepseek-r1:1.5b-q4", Engine: "ollama"}}},
	}
	c := startCluster(t, cfg)

	list, err := gatewayClient(c).ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, m := range list.Data {
		got[m.ID] = true
	}
	if !got["llama3.2:1b-fp16"] || !got["deepseek-r1:1.5b-q4"] || len(got) != 2 {
		t.Fatalf("models union = %v", got)
	}
}

func TestHeartbeatMarksNodeDownAndRoutesAround(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model))

	if err := c.KillNode("node-b"); err != nil {
		t.Fatal(err)
	}
	// One missed probe is not enough; missLimit (3) consecutive are.
	c.NodeRegistry().Sweep()
	if n, _ := c.Node("node-b"); n.State() != NodeHealthy {
		t.Fatalf("node-b down after a single miss: %v", n.State())
	}
	c.NodeRegistry().Sweep()
	c.NodeRegistry().Sweep()
	if n, _ := c.Node("node-b"); n.State() != NodeDown {
		t.Fatalf("node-b state after %d misses = %v", 3, n.State())
	}

	// The cluster still serves from the surviving node.
	gatewayChat(t, c, model, 2)
	if got := c.Registry().Counter("placement_node_node-a").Value(); got != 1 {
		t.Fatalf("node-a placements = %v", got)
	}
	// Gateway health stays green with one node up.
	hr, err := httpClient(c).Get(c.URL() + "/health")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("gateway health = %d", hr.StatusCode)
	}
}

func TestFailoverBufferedRequest(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model))

	// Warm node-a so it is the clear locality winner, then kill it
	// abruptly. The registry still believes it is healthy, so the
	// gateway's next placement goes there, hits a connection error,
	// fences the node, and retries on node-b — invisibly to the client.
	gatewayChat(t, c, model, 2)
	if err := c.KillNode("node-a"); err != nil {
		t.Fatal(err)
	}
	resp := gatewayChat(t, c, model, 4)
	if resp.Usage.CompletionTokens != 4 {
		t.Fatalf("completion tokens = %d", resp.Usage.CompletionTokens)
	}
	reg := c.Registry()
	if got := reg.Counter("cross_node_retries").Value(); got != 1 {
		t.Fatalf("cross_node_retries = %v", got)
	}
	if got := reg.Counter("failover_successes").Value(); got != 1 {
		t.Fatalf("failover_successes = %v", got)
	}
	if n, _ := c.Node("node-a"); n.State() != NodeDown {
		t.Fatalf("node-a not fenced after connection failure: %v", n.State())
	}
}

// TestFailoverMidStream is the acceptance scenario: a streaming request
// whose first node is killed mid-stream completes on the second node,
// with the client seeing one seamless, complete stream.
func TestFailoverMidStream(t *testing.T) {
	const model = "llama3.1:8b-fp16"
	c := startCluster(t, twoNodeConfig(model))

	const prompt = "stream a long answer please"
	seed := int64(7)
	// Each token takes clock time (~16 ms for an 8B model), and time
	// stands still while the client's callback runs, so the kill after
	// the third chunk lands with most of MinTokens' stream still to come.
	req := &ir.ChatCompletionRequest{
		Model:     model,
		Messages:  []ir.Message{{Role: "user", Content: prompt}},
		Seed:      &seed,
		MinTokens: 2000,
	}

	// The generator is deterministic, so the exact expected transcript is
	// known up front: identical on both replicas, which is what makes
	// skip-ahead stream resumption exact.
	var gen engine.Generator
	full := engine.PromptText(req.Messages)
	n := gen.CompletionLength(full, seed, 0)
	if n < req.MinTokens {
		n = req.MinTokens
	}
	var want strings.Builder
	for i := 0; i < n; i++ {
		want.WriteString(gen.Token(full, seed, i))
	}

	var got strings.Builder
	var chunks int
	killed := false
	err := gatewayClient(c).ChatCompletionStream(context.Background(), req,
		func(ch *ir.ChatCompletionChunk) error {
			chunks++
			for _, choice := range ch.Choices {
				got.WriteString(choice.Delta.Content)
			}
			if chunks == 3 && !killed {
				killed = true
				if err := c.KillNode("node-a"); err != nil {
					t.Errorf("killing node-a: %v", err)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("stream did not complete across failover: %v", err)
	}

	if got.String() != want.String() {
		t.Fatalf("resumed stream diverged:\n got %q\nwant %q", got.String(), want.String())
	}
	// Role preamble + n tokens + finish chunk.
	if wantChunks := n + 2; chunks != wantChunks {
		t.Fatalf("chunks = %d, want %d (no duplicates or gaps across failover)", chunks, wantChunks)
	}
	reg := c.Registry()
	if got := reg.Counter("cross_node_retries").Value(); got < 1 {
		t.Fatalf("cross_node_retries = %v, want >= 1 (stream must have failed over)", got)
	}
	if got := reg.Counter("failover_successes").Value(); got < 1 {
		t.Fatalf("failover_successes = %v", got)
	}
}

func TestGatewayMetricsEndpoints(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model))
	gatewayChat(t, c, model, 2)

	resp, err := httpClient(c).Get(c.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# TYPE", "gateway_requests_total", "placement_hit_ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}

	resp2, err := httpClient(c).Get(c.URL() + "/metrics.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf2 := new(strings.Builder)
	if _, err := io.Copy(buf2, resp2.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf2.String(), "kind,name,field,value") {
		t.Errorf("csv export header missing: %q", buf2.String()[:40])
	}
}

func TestUnrouteableModel(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model))
	_, err := gatewayClient(c).ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:    "gemma:7b-fp16", // valid catalog model, deployed nowhere
		Messages: []ir.Message{{Role: "user", Content: "hi"}},
	})
	if err == nil || !strings.Contains(err.Error(), "not available") {
		t.Fatalf("expected not-available error, got %v", err)
	}
}
