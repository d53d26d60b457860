package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"swapservellm/internal/chaos"
	"swapservellm/internal/engine"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
)

// postGateway posts a JSON body to a gateway path with optional extra
// headers and returns the raw response.
func postGateway(t *testing.T, url, path, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestNDJSONCutPointMatrix generalizes the SSE failover acceptance
// matrix to the Ollama framing: for each cut point k, the chaos plan
// severs the relayed canonical stream after exactly k delivered
// events. Because the gateway counts canonical upstream events — not
// client frames — the resume arithmetic is identical under NDJSON, and
// the client's line sequence must be free of duplicates and gaps at
// every cut point.
func TestNDJSONCutPointMatrix(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	const prompt = "stream across a cut"

	// The deterministic transcript the canonicalized /api/chat request
	// produces (no num_predict: the natural completion length).
	seed := seedForStream
	canonical := &ir.ChatCompletionRequest{
		Model:    model,
		Messages: []ir.Message{{Role: "user", Content: prompt}},
		Seed:     &seed,
	}
	want, n := expectedTranscript(canonical)
	if n < 8 {
		t.Fatalf("natural completion length %d too short to cut meaningfully", n)
	}

	for _, cut := range []int{0, 1, 2, 5, n / 2, n} {
		t.Run(fmt.Sprintf("after=%d", cut), func(t *testing.T) {
			plan := chaos.MustParsePlan(fmt.Sprintf("seed=1; cluster.sse: after=%d times=1", cut))
			inj := chaos.NewInjector(plan)
			c := startChaosCluster(t, twoNodeConfig(model), 5000, inj, nil)

			body := fmt.Sprintf(`{"model":%q,"messages":[{"role":"user","content":%q}],"options":{"seed":7}}`,
				model, prompt)
			resp := postGateway(t, c.URL(), "/api/chat", body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("content type = %q, want application/x-ndjson", ct)
			}

			var got strings.Builder
			var lines int
			var last ir.OllamaChatChunk
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if len(bytes.TrimSpace(sc.Bytes())) == 0 {
					continue
				}
				lines++
				if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
					t.Fatalf("line %d is not a chat chunk: %v", lines, err)
				}
				got.WriteString(last.Message.Content)
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("stream did not survive cut after %d events: %v", cut, err)
			}

			if !last.Done {
				t.Fatalf("final line not done:true — stream truncated at cut %d", cut)
			}
			if got.String() != want {
				t.Fatalf("transcript diverged at cut %d:\n got %q\nwant %q", cut, got.String(), want)
			}
			// Role preamble + n tokens + the done line, exactly once each
			// (the SSE [DONE] sentinel has no NDJSON frame).
			if wantLines := n + 2; lines != wantLines {
				t.Fatalf("lines = %d, want %d (duplicates or gaps across cut %d)", lines, wantLines, cut)
			}
			if last.EvalCount != n {
				t.Fatalf("done line eval_count = %d, want %d", last.EvalCount, n)
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

// TestGatewayCacheRevisionCorrectness proves the response cache's
// safety property end to end: identical requests hit (across
// protocols, since the key is the canonical encoding), and a model
// revision bump via the admin API invalidates every cached answer so a
// re-deployed model can never serve its predecessor's responses.
func TestGatewayCacheRevisionCorrectness(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model), 5000)
	reg := c.Registry()

	openaiBody := fmt.Sprintf(`{"model":%q,"messages":[{"role":"user","content":"say hi"}],"max_tokens":4,"seed":7}`, model)

	// First request: a miss, forwarded to a node and stored.
	first := postGateway(t, c.URL(), "/v1/chat/completions", openaiBody, nil)
	if first.StatusCode != http.StatusOK || first.Header.Get("X-Cache") == "hit" {
		t.Fatalf("first request: status %d, X-Cache %q", first.StatusCode, first.Header.Get("X-Cache"))
	}
	var miss ir.ChatCompletionResponse
	if err := json.NewDecoder(first.Body).Decode(&miss); err != nil {
		t.Fatal(err)
	}

	// Identical request: served from cache without touching placement.
	placed := reg.Counter("placement_total").Value()
	second := postGateway(t, c.URL(), "/v1/chat/completions", openaiBody, nil)
	if second.Header.Get("X-Cache") != "hit" {
		t.Fatal("identical request did not hit the cache")
	}
	var hit ir.ChatCompletionResponse
	if err := json.NewDecoder(second.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	if hit.Choices[0].Message.Content != miss.Choices[0].Message.Content {
		t.Fatal("cached response diverged from the original")
	}
	if got := reg.Counter("placement_total").Value(); got != placed {
		t.Fatalf("cache hit ran placement: %v -> %v", placed, got)
	}

	// The protocol sibling shares the entry: /api/generate canonicalizes
	// to the same upstream encoding, so it hits — translated into the
	// Ollama wire shape on the way out.
	genBody := fmt.Sprintf(`{"model":%q,"prompt":"say hi","stream":false,"options":{"num_predict":4,"seed":7}}`, model)
	gen := postGateway(t, c.URL(), "/api/generate", genBody, nil)
	if gen.Header.Get("X-Cache") != "hit" {
		t.Fatal("cross-protocol sibling did not share the cache entry")
	}
	var chunk ir.OllamaGenerateChunk
	if err := json.NewDecoder(gen.Body).Decode(&chunk); err != nil {
		t.Fatal(err)
	}
	if !chunk.Done || chunk.Response != miss.Choices[0].Message.Content {
		t.Fatalf("translated cache hit = %+v, want done response %q", chunk, miss.Choices[0].Message.Content)
	}

	// Cache-Control: no-store bypasses without poisoning accounting.
	bypass := postGateway(t, c.URL(), "/v1/chat/completions", openaiBody,
		map[string]string{"Cache-Control": "no-store"})
	if bypass.Header.Get("X-Cache") == "hit" {
		t.Fatal("no-store request served from cache")
	}
	if got := reg.Counter("proxy_cache_bypass").Value(); got < 1 {
		t.Fatalf("proxy_cache_bypass = %v, want >= 1", got)
	}

	// A revision bump (re-deployed weights under the same name) must
	// invalidate: the next identical request misses and re-forwards.
	rev := postGateway(t, c.URL(), "/admin/v1/models/revision?model="+model, "", nil)
	if rev.StatusCode != http.StatusOK {
		t.Fatalf("revision bump status = %d", rev.StatusCode)
	}
	var bumped struct {
		Model    string `json:"model"`
		Revision uint64 `json:"revision"`
	}
	if err := json.NewDecoder(rev.Body).Decode(&bumped); err != nil {
		t.Fatal(err)
	}
	if bumped.Revision != 1 {
		t.Fatalf("revision = %d, want 1", bumped.Revision)
	}
	placed = reg.Counter("placement_total").Value()
	after := postGateway(t, c.URL(), "/v1/chat/completions", openaiBody, nil)
	if after.Header.Get("X-Cache") == "hit" {
		t.Fatal("request served from cache across a model revision")
	}
	if got := reg.Counter("placement_total").Value(); got != placed+1 {
		t.Fatalf("post-bump request did not re-forward: placement_total %v -> %v", placed, got)
	}

	// Hit-ratio gauges surface in the registry (and thus in /metrics and
	// the CSV export, which render every counter and gauge).
	if reg.Gauge("proxy_cache_hit_ratio").Value() <= 0 {
		t.Fatal("proxy_cache_hit_ratio gauge not set")
	}
	if reg.Counter("proxy_cache_hits_v1_chat_completions").Value() < 1 {
		t.Fatal("per-endpoint hit counter not set")
	}
}

// TestGatewayTranslateFaultIs503 wires the proxy.translate chaos site
// through the gateway: an injected translation fault answers with a
// well-formed 503 (the pipeline is degraded, not the request), and the
// next request is served normally.
func TestGatewayTranslateFaultIs503(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	inj := chaos.NewInjector(chaos.MustParsePlan("seed=1; proxy.translate: times=1"))
	c := startChaosCluster(t, twoNodeConfig(model), 5000, inj, nil)

	body := fmt.Sprintf(`{"model":%q,"messages":[{"role":"user","content":"hi"}],"max_tokens":2,"seed":7}`, model)
	resp := postGateway(t, c.URL(), "/v1/chat/completions", body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var env ir.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("503 body is not a well-formed error envelope: %v", err)
	}
	if env.Error.Type != "translate_failed" {
		t.Fatalf("error type = %q, want translate_failed", env.Error.Type)
	}
	if got := c.Registry().Counter("gateway_translate_failures").Value(); got != 1 {
		t.Fatalf("gateway_translate_failures = %v, want 1", got)
	}

	if resp := postGateway(t, c.URL(), "/v1/chat/completions", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request: status = %d, want 200", resp.StatusCode)
	}
}

// TestGatewayListingsAndEncoders covers the remaining endpoint families
// end to end through the cluster gateway: both protocol listings
// (/v1/models with capabilities, /api/tags with catalog details) and
// the encoder endpoints (/v1/embeddings, /v1/rerank) forwarded through
// placement to a node's engine.
func TestGatewayListingsAndEncoders(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model), 5000)

	list, err := openai.NewClient(c.URL()).ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Data) != 1 || list.Data[0].ID != model {
		t.Fatalf("models = %+v", list.Data)
	}
	caps := strings.Join(list.Data[0].Capabilities, ",")
	for _, want := range []string{"chat", "embeddings", "rerank", "vision"} {
		if !strings.Contains(caps, want) {
			t.Fatalf("capabilities %q missing %q", caps, want)
		}
	}

	tagsResp, err := http.Get(c.URL() + "/api/tags")
	if err != nil {
		t.Fatal(err)
	}
	defer tagsResp.Body.Close()
	var tags ir.OllamaTagsResponse
	if err := json.NewDecoder(tagsResp.Body).Decode(&tags); err != nil {
		t.Fatal(err)
	}
	if len(tags.Models) != 1 || tags.Models[0].Name != model ||
		tags.Models[0].Details.QuantizationLevel != "FP16" || tags.Models[0].Size <= 0 {
		t.Fatalf("tags = %+v", tags.Models)
	}

	embBody := fmt.Sprintf(`{"model":%q,"input":["alpha","beta"]}`, model)
	embResp := postGateway(t, c.URL(), "/v1/embeddings", embBody, nil)
	if embResp.StatusCode != http.StatusOK {
		t.Fatalf("embeddings status = %d", embResp.StatusCode)
	}
	var emb ir.EmbeddingsResponse
	if err := json.NewDecoder(embResp.Body).Decode(&emb); err != nil {
		t.Fatal(err)
	}
	if len(emb.Data) != 2 || len(emb.Data[0].Embedding) != engine.EmbeddingDim {
		t.Fatalf("embeddings = %+v", emb)
	}

	rrBody := fmt.Sprintf(`{"model":%q,"query":"swap latency","documents":["a","b","c"],"top_n":2}`, model)
	rrResp := postGateway(t, c.URL(), "/v1/rerank", rrBody, nil)
	if rrResp.StatusCode != http.StatusOK {
		t.Fatalf("rerank status = %d", rrResp.StatusCode)
	}
	var rr ir.RerankResponse
	if err := json.NewDecoder(rrResp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != 2 || rr.Results[0].RelevanceScore < rr.Results[1].RelevanceScore {
		t.Fatalf("rerank = %+v", rr.Results)
	}
}

// TestGatewayDebugTraceRequiresToken: with auth_token set, the
// gateway's trace export sits behind the bearer token like /metrics
// and the admin routes.
func TestGatewayDebugTraceRequiresToken(t *testing.T) {
	cfg := twoNodeConfig("llama3.2:1b-fp16")
	cfg.Global.AuthToken = "secret-token"
	c := startCluster(t, cfg, 5000)

	resp, err := http.Get(c.URL() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("/debug/trace without token: status %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, c.URL()+"/debug/trace", nil)
	req.Header.Set("Authorization", "Bearer secret-token")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace with token: status %d", resp.StatusCode)
	}
}

// TestGatewayOversizedBodyIs413: a request body one byte over the 1 MiB
// bound is answered 413 with an error envelope, not cut short and
// misreported as malformed JSON.
func TestGatewayOversizedBodyIs413(t *testing.T) {
	const model = "llama3.2:1b-fp16"
	c := startCluster(t, twoNodeConfig(model), 5000)
	head := fmt.Sprintf(`{"model":%q,"messages":[{"role":"user","content":"`, model)
	const tail = `"}]}`
	body := head + strings.Repeat("x", 1<<20+1-len(head)-len(tail)) + tail
	resp := postGateway(t, c.URL(), "/api/chat", body, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var env ir.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Type != "invalid_request_error" {
		t.Fatalf("413 body: %+v, %v", env, err)
	}
}
