package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"swapservellm/internal/config"
	"swapservellm/internal/proxy"
)

// frontDoorKind is one request kind of the frontdoor-hot workload, in
// the shape its client sends: json.Marshal of a map, so keys sorted.
// budget bounds its allocations per request. Before the node relayed
// canonical bytes and every family decoded without reflection, the
// kinds measured, in this order, 105, 109, 124, 121, 121 and 139.
type frontDoorKind struct {
	name, path string
	body       func(model, prompt string) string
	budget     float64
}

var frontDoorKinds = []frontDoorKind{
	{"chat", "/v1/chat/completions", func(m, p string) string {
		return fmt.Sprintf(`{"max_tokens":8,"messages":[{"content":%q,"role":"user"}],"model":%q,"seed":3,"stream":false}`, p, m)
	}, 90},
	{"chat-sse", "/v1/chat/completions", func(m, p string) string {
		return fmt.Sprintf(`{"max_tokens":8,"messages":[{"content":%q,"role":"user"}],"model":%q,"seed":3,"stream":true}`, p, m)
	}, 88},
	{"ollama-chat", "/api/chat", func(m, p string) string {
		return fmt.Sprintf(`{"messages":[{"content":%q,"role":"user"}],"model":%q,"options":{"num_predict":8,"seed":3}}`, p, m)
	}, 94},
	{"generate", "/api/generate", func(m, p string) string {
		return fmt.Sprintf(`{"model":%q,"options":{"num_predict":8,"seed":3},"prompt":%q,"stream":false}`, m, p)
	}, 98},
	{"embeddings", "/v1/embeddings", func(m, p string) string {
		return fmt.Sprintf(`{"input":[%q],"model":%q}`, p, m)
	}, 83},
	{"rerank", "/v1/rerank", func(m, p string) string {
		return fmt.Sprintf(`{"documents":["swap","serve","checkpoint","restore","placement"],"model":%q,"query":%q,"top_n":3}`, m, p)
	}, 88},
}

// TestFrontDoorAllocs pins what one request of each frontdoor-hot kind
// allocates end to end on a Virtual cluster: the client, the gateway's
// decode, cache miss and forward, the node's relay, the engine and the
// clock, everything the process allocates while the request runs. Every
// request carries a fresh prompt, so each is a cache miss.
func TestFrontDoorAllocs(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	const runs = 20
	cfg := twoNodeConfig(model)
	// frontdoor-hot's admission control: every request is classed, and
	// the class rides the forward's header.
	cfg.Scheduling = config.SchedCfg{
		Classes:   []config.SchedClass{{Name: "interactive", SLOSec: 2.5, RatePerSec: 1000}},
		Admission: true,
	}
	c := startCluster(t, cfg)

	// The node's inward prelude on the canonical body the gateway
	// forwards: a check of the body, no decode, no re-encode. It waits
	// on nothing, so it may run in a subtest's goroutine.
	t.Run("node prelude", func(t *testing.T) {
		gw, _ := c.Front().Endpoint("/api/chat")
		_, _, canonical, err := c.Front().Inward(gw, []byte(frontDoorKinds[2].body(model, "prelude probe")))
		if err != nil {
			t.Fatal(err)
		}
		node := proxy.New() // a node's front door: no response cache
		ep, _ := node.Endpoint(gw.Upstream)
		got := testing.AllocsPerRun(100, func() {
			if _, _, out, err := node.Inward(ep, canonical); err != nil || &out[0] != &canonical[0] {
				t.Fatalf("node prelude: %v, or the body was copied", err)
			}
		})
		t.Logf("node prelude: %v allocations", got)
		if got > 2 {
			t.Errorf("the node's prelude allocates %v times per request, budget 2", got)
		}
	})

	// The kinds run in the test's own goroutine, the one registered on
	// the clock: a subtest's goroutine is not, and the clock would wait
	// on it.
	client := httpClient(c)
	for _, k := range frontDoorKinds {
		bodies := make([][]byte, runs+2)
		for i := range bodies {
			bodies[i] = []byte(k.body(model, fmt.Sprintf("alloc probe %s %d: the quick brown fox", k.name, i)))
		}
		var n int
		send := func() {
			req, err := http.NewRequest(http.MethodPost, c.URL()+k.path, bytes.NewReader(bodies[n]))
			if err != nil {
				t.Fatal(err)
			}
			n++
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", k.path, resp.StatusCode)
			}
		}
		send()
		got := testing.AllocsPerRun(runs, send)
		t.Logf("%s: %v allocations", k.name, got)
		if got > k.budget {
			t.Errorf("%s allocates %v times per request, budget %v", k.name, got, k.budget)
		}
	}
}

// TestEscapedBodyReachesEngine: a body the gateway admits reaches the
// engine. A 307 KB /api/chat body of "<"s is within the 1 MiB bound;
// with each "<" escaped as six bytes its canonical encoding would be
// six times that, and the node would refuse it 413.
func TestEscapedBodyReachesEngine(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model))
	for _, fill := range []string{"a", "<"} {
		body := fmt.Sprintf(`{"model":%q,"messages":[{"role":"user","content":"%s"}],"stream":false,"options":{"num_predict":2}}`,
			model, strings.Repeat(fill, 307<<10))
		resp := postGateway(t, c, "/api/chat", body, nil)
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("%q body: status %d: %s", fill, resp.StatusCode, msg)
		}
	}
}

// TestForwardHeaderSharedPerClass: a forward carrying the gateway's own
// token shares its class's header, built once; any other Authorization
// value gets a header of its own, so the shared set stays as small as
// the class list.
func TestForwardHeaderSharedPerClass(t *testing.T) {
	cfg := twoNodeConfig("llama3.2:1b-fp16")
	cfg.Global.AuthToken = "secret"
	g := &gateway{c: &Cluster{cfg: cfg}}
	h := g.header("Bearer secret", "gold")
	if got := g.header("Bearer secret", "gold"); &got["X-Priority-Class"][0] != &h["X-Priority-Class"][0] {
		t.Fatal("the gateway's own token: a class header built twice")
	}
	if h.Get("Authorization") != "Bearer secret" || h.Get("X-Priority-Class") != "gold" || h.Get("Content-Type") != "application/json" {
		t.Fatalf("header = %v", h)
	}
	foreign := g.header("Bearer other", "gold")
	if foreign.Get("Authorization") != "Bearer other" || len(g.headers) != 1 {
		t.Fatalf("foreign token: header %v, %d shared", foreign, len(g.headers))
	}
}
