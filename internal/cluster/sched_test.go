package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/core"
)

// schedConfig is a one-node deployment with two classes: a small gold
// model and a bronze model whose guaranteed share is nearly zero, so
// overload sheds it immediately once its single burst token is spent.
func schedConfig() config.Cluster {
	cfg := config.DefaultCluster()
	cfg.Cluster.HeartbeatSec = 3600
	cfg.Scheduling = config.SchedCfg{
		Classes: []config.SchedClass{
			{Name: "gold", Priority: 0, SLOSec: 30, RatePerSec: 5},
			{Name: "bronze", Priority: 2, SLOSec: 1, RatePerSec: 0.01},
		},
		Admission: true,
	}
	cfg.Nodes = []config.Node{{Name: "node-a", Models: []config.Model{
		{Name: "llama3.2:1b-fp16", Engine: "ollama", Class: "gold"},
		{Name: "llama3.2:3b-fp16", Engine: "ollama", Class: "bronze"},
	}}}
	return cfg
}

// pollEvery and pollLimit pace a test's polling of cluster state on the
// clock.
const (
	pollEvery = 25 * time.Second
	pollLimit = 150000 * time.Second
)

// postChat sends a minimal chat request straight through the gateway,
// returning the raw response so status codes and headers are visible.
func postChat(t *testing.T, c *Cluster, model, classHeader string) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"model":%q,"messages":[{"role":"user","content":"hi"}],"max_tokens":2,"seed":7}`, model)
	req, err := http.NewRequest(http.MethodPost, c.URL()+"/v1/chat/completions", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Admission semantics are under test: bypass the response cache so
	// repeated identical requests actually reach the admission gate.
	req.Header.Set("Cache-Control", "no-store")
	if classHeader != "" {
		req.Header.Set("X-Priority-Class", classHeader)
	}
	resp, err := httpClient(c).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestGatewayAdmissionSheds429 drives the gateway into a shed: with a
// pile of bronze work in flight and the bronze bucket drained, a bronze
// request gets 429 + Retry-After while gold still flows.
func TestGatewayAdmissionSheds429(t *testing.T) {
	c := startCluster(t, schedConfig())
	_, adm, _ := c.Sched()
	if adm == nil {
		t.Fatal("admission controller not built")
	}

	// Teach the service-time EWMA 10s per request, then park bronze
	// in-flight work so the bronze predicted wait dwarfs its 1s SLO.
	adm.NoteStart("bronze")
	adm.NoteDone("bronze", 10*time.Second)
	for i := 0; i < 10; i++ {
		adm.NoteStart("bronze")
	}

	// The bronze burst is one token; the first over-SLO request spends
	// it, the second is shed.
	first := postChat(t, c, "llama3.2:3b-fp16", "")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("guaranteed-share request: HTTP %d", first.StatusCode)
	}
	shed := postChat(t, c, "llama3.2:3b-fp16", "")
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload bronze request: HTTP %d, want 429", shed.StatusCode)
	}
	if ra := shed.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	// Gold is invisible to bronze backlog: admitted via slack.
	gold := postChat(t, c, "llama3.2:1b-fp16", "")
	if gold.StatusCode != http.StatusOK {
		t.Fatalf("gold request under bronze overload: HTTP %d", gold.StatusCode)
	}

	reg := c.Registry()
	if got := reg.Counter("sched_shed_bronze").Value(); got < 1 {
		t.Fatalf("sched_shed_bronze = %v", got)
	}
	if got := reg.Counter("sched_admitted_gold").Value(); got < 1 {
		t.Fatalf("sched_admitted_gold = %v", got)
	}

	// A per-tenant header override re-classes the request: the gold
	// model shed as bronze, and an unknown class rejected outright.
	if resp := postChat(t, c, "llama3.2:1b-fp16", "bronze"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("header-overridden request: HTTP %d, want 429", resp.StatusCode)
	}
	if resp := postChat(t, c, "llama3.2:1b-fp16", "platinum"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown class header: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestClusterPrewarmModel exercises the pre-warm hook end to end: a
// cold model becomes warm without any request touching it.
func TestClusterPrewarmModel(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	cfg := schedConfig()
	c := startCluster(t, cfg)

	if !c.prewarmModel(model) {
		t.Fatal("prewarmModel refused a cold model")
	}
	clock := c.Clock()
	deadline := clock.Now().Add(pollLimit)
	for {
		cands := c.registry.Candidates(model)
		if len(cands) == 1 && cands[0].Presence == PresenceWarm {
			break
		}
		if clock.Now().After(deadline) {
			t.Fatal("model never became warm after pre-warm")
		}
		clock.Sleep(pollEvery)
	}
	// Already warm: the hook declines rather than re-issuing.
	if c.prewarmModel(model) {
		t.Fatal("prewarmModel re-issued for a warm model")
	}
}

// TestClusterTTLPolicyEvicts installs a fixed TTL policy and checks the
// node reaper consults it: a served backend returns to its snapshot
// once idle past the TTL, with keep_alive_sec unset.
func TestClusterTTLPolicyEvicts(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	cfg := schedConfig()
	cfg.Scheduling.Admission = false
	cfg.Scheduling.TTLPolicy = "fixed"
	cfg.Scheduling.TTLSec = 5
	c := startCluster(t, cfg)

	gatewayChat(t, c, model, 2)
	n, _ := c.Node("node-a")
	b, ok := n.Server().Backend(model)
	if !ok {
		t.Fatal("backend missing")
	}
	clock := c.Clock()
	deadline := clock.Now().Add(pollLimit)
	for b.State() == core.BackendRunning {
		if clock.Now().After(deadline) {
			t.Fatal("TTL policy never evicted the idle backend")
		}
		clock.Sleep(pollEvery)
	}
}
