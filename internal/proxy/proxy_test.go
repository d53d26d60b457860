package proxy

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"swapservellm/internal/chaos"
	"swapservellm/internal/metrics"
	"swapservellm/internal/proxy/ir"
)

func TestDefaultTableLookup(t *testing.T) {
	f := New()
	cases := []struct {
		path     string
		protocol Protocol
		family   ir.Family
		framing  ir.Framing
		upstream string
	}{
		{"/v1/chat/completions", ProtocolOpenAI, ir.FamilyChat, ir.FramingSSE, "/v1/chat/completions"},
		{"/v1/completions", ProtocolOpenAI, ir.FamilyCompletion, ir.FramingSSE, "/v1/completions"},
		{"/v1/embeddings", ProtocolOpenAI, ir.FamilyEmbeddings, "", "/v1/embeddings"},
		{"/v1/rerank", ProtocolOpenAI, ir.FamilyRerank, "", "/v1/rerank"},
		{"/v1/models", ProtocolOpenAI, ir.FamilyList, "", ""},
		{"/api/chat", ProtocolOllama, ir.FamilyChat, ir.FramingNDJSON, "/v1/chat/completions"},
		{"/api/generate", ProtocolOllama, ir.FamilyGenerate, ir.FramingNDJSON, "/v1/chat/completions"},
		{"/api/tags", ProtocolOllama, ir.FamilyList, "", ""},
	}
	if len(f.Table()) != len(cases) {
		t.Fatalf("table has %d rows, test covers %d", len(f.Table()), len(cases))
	}
	for _, c := range cases {
		ep, ok := f.Endpoint(c.path)
		if !ok {
			t.Fatalf("endpoint %s missing", c.path)
		}
		if ep.Protocol != c.protocol || ep.Family != c.family || ep.Framing != c.framing || ep.Upstream != c.upstream {
			t.Fatalf("endpoint %s = %+v, want %+v", c.path, ep, c)
		}
	}
	if _, ok := f.Endpoint("/v1/nonesuch"); ok {
		t.Fatal("unknown path must not resolve")
	}
}

func TestMetricName(t *testing.T) {
	ep := Endpoint{Path: "/v1/chat/completions"}
	if got := ep.MetricName(); got != "v1_chat_completions" {
		t.Fatalf("MetricName = %q", got)
	}
	ep = Endpoint{Path: "/api/generate"}
	if got := ep.MetricName(); got != "api_generate" {
		t.Fatalf("MetricName = %q", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted early")
	}
	c.put("c", []byte("3")) // evicts b (a was just touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a lost")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c lost")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestCacheRevisionInvalidation(t *testing.T) {
	c := newCache(8)
	body := []byte(`{"model":"m","messages":[]}`)
	k0 := c.key("/v1/chat/completions", "m", body)
	c.put(k0, []byte("resp"))
	if _, ok := c.get(c.key("/v1/chat/completions", "m", body)); !ok {
		t.Fatal("stable key must hit")
	}
	if rev := c.bumpRevision("m"); rev != 1 {
		t.Fatalf("rev = %d", rev)
	}
	k1 := c.key("/v1/chat/completions", "m", body)
	if k0 == k1 {
		t.Fatal("revision bump must change the key")
	}
	if _, ok := c.get(k1); ok {
		t.Fatal("post-bump lookup must miss: cached responses never cross revisions")
	}
	// Other models' keys are unaffected.
	if got := c.revision("other"); got != 0 {
		t.Fatalf("unrelated model revision = %d", got)
	}
}

func TestFrontCacheAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	f := New(WithCacheEntries(16), WithRegistry(reg))
	ep, _ := f.Endpoint("/api/chat")
	canonical := []byte(`{"model":"m","messages":[{"role":"user","content":"hi"}]}`)

	if _, ok := f.CacheLookup(ep, "m", canonical, false); ok {
		t.Fatal("cold lookup must miss")
	}
	f.CacheStore(ep, "m", canonical, []byte(`{"answer":1}`))
	body, ok := f.CacheLookup(ep, "m", canonical, false)
	if !ok || string(body) != `{"answer":1}` {
		t.Fatalf("warm lookup = %q, %v", body, ok)
	}

	// Cross-protocol sharing: the OpenAI sibling endpoint has the same
	// upstream, so the same canonical body hits the same entry.
	oa, _ := f.Endpoint("/v1/chat/completions")
	if _, ok := f.CacheLookup(oa, "m", canonical, false); !ok {
		t.Fatal("protocol siblings must share cache entries")
	}

	// Cache-Control: no-store bypasses without consulting the cache.
	if _, ok := f.CacheLookup(ep, "m", canonical, true); ok {
		t.Fatal("no-store must bypass")
	}

	// Revision bump invalidates.
	f.BumpRevision("m")
	if _, ok := f.CacheLookup(ep, "m", canonical, false); ok {
		t.Fatal("lookup after revision bump must miss")
	}

	if got := reg.Counter("proxy_cache_hits").Value(); got != 2 {
		t.Fatalf("hits = %v", got)
	}
	if got := reg.Counter("proxy_cache_misses").Value(); got != 2 {
		t.Fatalf("misses = %v", got)
	}
	if got := reg.Counter("proxy_cache_bypass").Value(); got != 1 {
		t.Fatalf("bypass = %v", got)
	}
	if got := reg.Counter("proxy_cache_hits_api_chat").Value(); got != 1 {
		t.Fatalf("per-endpoint hits = %v", got)
	}
	if got := reg.Gauge("proxy_cache_hit_ratio").Value(); got != 0.5 {
		t.Fatalf("hit ratio = %v", got)
	}
	if got := reg.Gauge("proxy_cache_entries").Value(); got != 1 {
		t.Fatalf("entries gauge = %v", got)
	}
}

func TestFrontCacheDisabled(t *testing.T) {
	f := New() // no WithCacheEntries
	if f.CacheEnabled() {
		t.Fatal("cache must default off in a bare Front")
	}
	ep, _ := f.Endpoint("/v1/chat/completions")
	if _, ok := f.CacheLookup(ep, "m", []byte("x"), false); ok {
		t.Fatal("disabled cache must miss")
	}
	f.CacheStore(ep, "m", []byte("x"), []byte("y")) // must not panic
	if rev := f.BumpRevision("m"); rev != 0 {
		t.Fatalf("BumpRevision on disabled cache = %d", rev)
	}
}

func TestDecodeTranslateChaos(t *testing.T) {
	inj := chaos.NewInjector(chaos.MustParsePlan("seed=1; proxy.translate: times=1"))
	f := New(WithChaos(inj))
	ep, _ := f.Endpoint("/api/chat")
	body := []byte(`{"model":"m","messages":[{"role":"user","content":"hi"}]}`)

	_, _, _, err := f.Inward(ep, body)
	if !errors.Is(err, ErrTranslate) {
		t.Fatalf("first decode must fail with ErrTranslate, got %v", err)
	}
	model, stream, canonical, err := f.Inward(ep, body)
	if err != nil {
		t.Fatalf("second decode: %v", err)
	}
	if model != "m" || !stream || !strings.Contains(string(canonical), `"messages":[{"role":"user","content":"hi"}]`) {
		t.Fatalf("decoded request = %q, %v, %s", model, stream, canonical)
	}
}

func TestCacheChaosBypass(t *testing.T) {
	reg := metrics.NewRegistry()
	inj := chaos.NewInjector(chaos.MustParsePlan("seed=1; proxy.cache: times=1"))
	f := New(WithCacheEntries(16), WithChaos(inj), WithRegistry(reg))
	ep, _ := f.Endpoint("/v1/chat/completions")
	canonical := []byte(`{"model":"m","messages":[{"role":"user","content":"hi"}]}`)

	f.CacheStore(ep, "m", canonical, []byte("resp"))
	if _, ok := f.CacheLookup(ep, "m", canonical, false); ok {
		t.Fatal("chaos-degraded lookup must bypass, never serve")
	}
	if got := reg.Counter("proxy_cache_bypass_v1_chat_completions").Value(); got != 1 {
		t.Fatalf("bypass counter = %v", got)
	}
	if _, ok := f.CacheLookup(ep, "m", canonical, false); !ok {
		t.Fatal("lookup after chaos window must hit")
	}
}

func TestDecodeRejectsBadPayload(t *testing.T) {
	f := New()
	ep, _ := f.Endpoint("/v1/chat/completions")
	if _, _, _, err := f.Inward(ep, []byte(`{"model":"m","messages":[]}`)); !errors.Is(err, ir.ErrDecode) {
		t.Fatalf("want ErrDecode, got %v", err)
	}
}

func TestTranslateResponsePassthroughAndOllama(t *testing.T) {
	f := New()
	canonical := []byte(`{"id":"chatcmpl-1","object":"chat.completion","created":100,"model":"m","choices":[{"index":0,"message":{"role":"assistant","content":"hi"},"finish_reason":"stop"}],"usage":{"prompt_tokens":3,"completion_tokens":1,"total_tokens":4}}`)

	oa, _ := f.Endpoint("/v1/chat/completions")
	out, err := f.TranslateResponse(oa, canonical)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(canonical) {
		t.Fatal("openai responses must pass through byte-exact")
	}

	ol, _ := f.Endpoint("/api/generate")
	out, err = f.TranslateResponse(ol, canonical)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"response":"hi"`) || !strings.Contains(string(out), `"done":true`) {
		t.Fatalf("ollama generate translation = %s", out)
	}
}

func TestStreamTranslatorPassthrough(t *testing.T) {
	f := New()
	ep, _ := f.Endpoint("/v1/chat/completions")
	tr := f.Translator(ep)
	if !tr.Passthrough() || tr.ContentType() != "text/event-stream" {
		t.Fatalf("openai translator = passthrough %v, %q", tr.Passthrough(), tr.ContentType())
	}
	event := `data: {"object":"chat.completion.chunk","choices":[{"index":0,"delta":{"role":"","content":"x"},"finish_reason":null}]}`
	frames, done, err := tr.AppendFrames(nil, []byte(event))
	if err != nil || done {
		t.Fatalf("AppendFrames: %v done=%v", err, done)
	}
	if string(frames) != event+"\n\n" {
		t.Fatalf("passthrough must re-frame verbatim, got %q", frames)
	}
	frames, done, err = tr.AppendFrames(nil, []byte("data: [DONE]"))
	if err != nil || !done {
		t.Fatalf("[DONE]: %v done=%v", err, done)
	}
	if string(frames) != "data: [DONE]\n\n" {
		t.Fatalf("[DONE] frame = %q", frames)
	}
}

func TestStreamTranslatorNDJSON(t *testing.T) {
	f := New()
	ep, _ := f.Endpoint("/api/chat")
	tr := f.Translator(ep)
	if tr.Passthrough() || tr.ContentType() != "application/x-ndjson" {
		t.Fatalf("ollama translator = passthrough %v, %q", tr.Passthrough(), tr.ContentType())
	}
	frames, done, err := tr.AppendFrames(nil, []byte(`data: {"model":"m","object":"chat.completion.chunk","choices":[{"index":0,"delta":{"role":"assistant","content":"x"},"finish_reason":null}]}`))
	if err != nil || done {
		t.Fatalf("content frame: %v done=%v", err, done)
	}
	if !strings.HasSuffix(string(frames), "\n") || !strings.Contains(string(frames), `"content":"x"`) {
		t.Fatalf("ndjson frame = %q", frames)
	}
	// The [DONE] sentinel emits nothing (the done line already closed the
	// stream) but still reports done so the relay stops.
	frames, done, err = tr.AppendFrames(nil, []byte("data: [DONE]"))
	if err != nil || !done {
		t.Fatalf("[DONE]: %v done=%v", err, done)
	}
	if len(frames) != 0 {
		t.Fatalf("[DONE] must emit no NDJSON frame, got %q", frames)
	}
}

func TestCodecUnknownProtocol(t *testing.T) {
	f := New()
	if _, err := f.Codec(Protocol("grpc")); !errors.Is(err, ErrUnknownProtocol) {
		t.Fatalf("want ErrUnknownProtocol, got %v", err)
	}
}

// TestCacheKeyFormat pins the key's layout: upstream, model, revision
// and the canonical body's FNV-1a hash as 16 hex digits.
func TestCacheKeyFormat(t *testing.T) {
	c := newCache(8)
	body := []byte(`{"model":"m","messages":[]}`)
	h := fnv.New64a()
	h.Write(body)
	c.bumpRevision("m")
	want := fmt.Sprintf("/v1/chat/completions|m|r1|%016x", h.Sum64())
	if got := c.key("/v1/chat/completions", "m", body); got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
}

// TestFramesAllocBudget pins the cost of translating one canonical SSE
// event into an Ollama NDJSON line: into a fresh buffer the buffer is
// the only allocation, and into a reused one there is none.
func TestFramesAllocBudget(t *testing.T) {
	f := New()
	ep, _ := f.Endpoint("/api/chat")
	tr := f.Translator(ep)
	event := []byte(`data: {"id":"chatcmpl-n1-7","object":"chat.completion.chunk","created":1700000000,"model":"llama3.2:3b","choices":[{"index":0,"delta":{"role":"","content":" token"},"finish_reason":null}]}`)
	if got := testing.AllocsPerRun(100, func() { tr.AppendFrames(make([]byte, 0, 256), event) }); got > 1 {
		t.Errorf("AppendFrames into a fresh buffer: %v allocations, budget 1", got)
	}
	buf := make([]byte, 0, 512)
	if got := testing.AllocsPerRun(100, func() { tr.AppendFrames(buf[:0], event) }); got > 0 {
		t.Errorf("AppendFrames into a reused buffer: %v allocations, budget 0", got)
	}
}
