// Package proxy is the multi-protocol front door: a declarative
// endpoint table routing OpenAI (/v1/*, SSE) and Ollama (/api/*,
// NDJSON) traffic through the protocol-neutral IR in
// internal/proxy/ir, the HTTP edge that serves the table, and an
// IR-keyed response cache in front of placement. The cluster gateway
// and the node router both plug into the same edge (see Door), so
// adding an endpoint is one table row, and every protocol reaches the
// same canonical upstream encoding — which is what makes deterministic
// cross-node stream resume work identically under SSE and NDJSON
// framing.
package proxy

import (
	"fmt"

	"swapservellm/internal/chaos"
	"swapservellm/internal/metrics"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// Options tunes Front construction.
type Options struct {
	// Table overrides the endpoint table (default: DefaultTable).
	Table []Endpoint
	// CacheEntries bounds the response cache (0 disables it).
	CacheEntries int
	// Chaos, when set, is consulted at the proxy.translate and
	// proxy.cache fault sites.
	Chaos *chaos.Injector
	// Registry, when set, receives per-endpoint cache hit/miss/bypass
	// counters and hit-ratio gauges.
	Registry *metrics.Registry
	// Clock, when set, charges chaos delay outcomes as simulated
	// latency (without it delays are ignored) and dates model listings.
	Clock simclock.Clock
}

// Option mutates Options during New (the functional mirror of
// cluster.Option).
type Option func(*Options)

// WithTable overrides the endpoint table.
func WithTable(table []Endpoint) Option { return func(o *Options) { o.Table = table } }

// WithCacheEntries bounds the response cache (0 disables it).
func WithCacheEntries(n int) Option { return func(o *Options) { o.CacheEntries = n } }

// WithChaos installs the shared fault injector.
func WithChaos(inj *chaos.Injector) Option { return func(o *Options) { o.Chaos = inj } }

// WithRegistry installs the metrics registry for cache accounting.
func WithRegistry(reg *metrics.Registry) Option { return func(o *Options) { o.Registry = reg } }

// WithClock installs the simulation clock for chaos delay outcomes.
func WithClock(clock simclock.Clock) Option { return func(o *Options) { o.Clock = clock } }

// Front is the assembled front door: the endpoint table, the codec
// registry, and the response cache. Safe for concurrent use.
type Front struct {
	table  []Endpoint
	byPath map[string]Endpoint
	codecs map[Protocol]ir.Codec
	cache  *cache
	inj    *chaos.Injector
	reg    *metrics.Registry
	clock  simclock.Clock
}

// New builds a front door, applying functional options.
func New(opts ...Option) *Front {
	var o Options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	table := DefaultTable()
	if o.Table != nil {
		table = append([]Endpoint(nil), o.Table...)
	}
	f := &Front{
		table:  table,
		byPath: make(map[string]Endpoint, len(table)),
		codecs: map[Protocol]ir.Codec{
			ProtocolOpenAI: ir.OpenAICodec{},
			ProtocolOllama: ir.OllamaCodec{},
		},
		cache: newCache(o.CacheEntries),
		inj:   o.Chaos,
		reg:   o.Registry,
		clock: o.Clock,
	}
	for i := range table {
		table[i].names = newRowNames(table[i].Path)
		f.byPath[table[i].Path] = table[i]
	}
	return f
}

// Table returns the endpoint table.
func (f *Front) Table() []Endpoint { return f.table }

// Endpoint looks a route up by client-facing path.
func (f *Front) Endpoint(path string) (Endpoint, bool) {
	ep, ok := f.byPath[path]
	return ep, ok
}

// Codec returns the codec for a protocol.
func (f *Front) Codec(p Protocol) (ir.Codec, error) {
	c, ok := f.codecs[p]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownProtocol, p)
	}
	return c, nil
}

// sleep charges a chaos delay when a clock is configured.
func (f *Front) sleep(out chaos.Outcome) {
	if out.Delay > 0 && f.clock != nil {
		f.clock.Sleep(out.Delay)
	}
}

// translateFault consults the proxy.translate chaos site, returning an
// injected fault as ErrTranslate, which the caller answers with a
// well-formed protocol error instead of forwarding garbage.
func (f *Front) translateFault(ep Endpoint) error {
	if out := f.inj.At(chaos.SiteProxyTranslate); out.Err != nil || out.Delay > 0 {
		f.sleep(out)
		if out.Err != nil {
			return fmt.Errorf("%w: %s: %w", ErrTranslate, ep.Path, out.Err)
		}
	}
	return nil
}

// decode translates one client request body into the IR via the
// endpoint's codec.
func (f *Front) decode(ep Endpoint, body []byte) (*ir.Request, error) {
	codec, err := f.Codec(ep.Protocol)
	if err != nil {
		return nil, err
	}
	return codec.DecodeRequest(ep.Family, body)
}

// Inward is the inference prelude past the body read: it turns a
// client body into the request's model, its stream flag and its
// canonical upstream body, each hop decoding only what it needs.
//
// An OpenAI row of a Front without a response cache (every node, and a
// gateway with the cache off) relays: the body it reads is the
// canonical encoding a gateway forwards, or one the engine decodes to
// the same request, so it only checks the body as DecodeRequest would
// and returns the bytes it got. A Front with a cache decodes and
// encodes, since the cache key is the canonical body protocol siblings
// share; so does every Ollama row, which must translate.
//
// A failure the pipeline caused wraps ErrTranslate, a canonical body
// past the size bound the next hop reads under wraps ErrTooLarge, and
// any other error is the request's.
func (f *Front) Inward(ep Endpoint, body []byte) (model string, stream bool, canonical []byte, err error) {
	if err := f.translateFault(ep); err != nil {
		return "", false, nil, err
	}
	if f.cache == nil && ep.Protocol == ProtocolOpenAI {
		if model, stream, err = (ir.OpenAICodec{}).Check(ep.Family, body); err != nil {
			return "", false, nil, fmt.Errorf("%s: %w", ep.Path, err)
		}
		return model, stream, body, nil
	}
	req, err := f.decode(ep, body)
	if err != nil {
		return "", false, nil, fmt.Errorf("%s: %w", ep.Path, err)
	}
	if canonical, err = f.EncodeUpstream(req); err != nil {
		return "", false, nil, fmt.Errorf("%w: %w", ErrTranslate, err)
	}
	if len(canonical) > maxBodyBytes {
		return "", false, nil, fmt.Errorf("%w: its canonical encoding exceeds %d bytes", ErrTooLarge, maxBodyBytes)
	}
	return req.Model, req.Stream, canonical, nil
}

// EncodeUpstream renders the canonical upstream body every protocol
// forwards as (the OpenAI encoding the simulated engines speak).
func (f *Front) EncodeUpstream(req *ir.Request) ([]byte, error) {
	return ir.OpenAICodec{}.EncodeRequest(req)
}

// TranslateResponse re-encodes a canonical (upstream) buffered response
// for the endpoint's clients. OpenAI endpoints pass bytes through
// untouched.
func (f *Front) TranslateResponse(ep Endpoint, canonical []byte) ([]byte, error) {
	if ep.Protocol == ProtocolOpenAI {
		return canonical, nil
	}
	codec, err := f.Codec(ep.Protocol)
	if err != nil {
		return nil, err
	}
	resp, err := (ir.OpenAICodec{}).DecodeResponse(ep.Family, canonical)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrTranslate, ep.Path, err)
	}
	out, err := codec.EncodeResponse(resp)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrTranslate, ep.Path, err)
	}
	return out, nil
}

// Translator builds the stream translator for an endpoint.
func (f *Front) Translator(ep Endpoint) *StreamTranslator {
	t := f.translator(ep)
	return &t
}

// translator is Translator's value, for a relay to hold in its own
// allocation.
func (f *Front) translator(ep Endpoint) StreamTranslator {
	codec, err := f.Codec(ep.Protocol)
	if err != nil {
		codec = ir.OpenAICodec{}
	}
	return StreamTranslator{
		out:         codec,
		re:          *ir.NewReframer(codec, ep.Family),
		passthrough: ep.Protocol == ProtocolOpenAI,
	}
}

// CacheEnabled reports whether the response cache is configured.
func (f *Front) CacheEnabled() bool { return f.cache != nil }

// CacheLen returns the live cache entry count (0 when disabled).
func (f *Front) CacheLen() int {
	if f.cache == nil {
		return 0
	}
	return f.cache.len()
}

// CacheLookup consults the response cache for a non-streaming request:
// the key is the endpoint's canonical upstream path + model revision +
// canonical body hash, so protocol siblings share entries and a
// revision bump invalidates them. noStore (the client sent
// Cache-Control: no-store) and the proxy.cache chaos site both bypass
// the cache — counted as bypasses, never served stale. Returns the
// canonical response body on a hit.
func (f *Front) CacheLookup(ep Endpoint, model string, canonical []byte, noStore bool) ([]byte, bool) {
	if f.cache == nil || !ep.Cacheable {
		return nil, false
	}
	if noStore {
		f.countCache(ep, cacheBypass)
		return nil, false
	}
	if out := f.inj.At(chaos.SiteProxyCache); out.Err != nil || out.Delay > 0 {
		f.sleep(out)
		if out.Err != nil {
			f.countCache(ep, cacheBypass)
			return nil, false
		}
	}
	body, ok := f.cache.get(f.cache.key(ep.Upstream, model, canonical))
	if ok {
		f.countCache(ep, cacheHit)
	} else {
		f.countCache(ep, cacheMiss)
	}
	return body, ok
}

// CacheStore records a canonical response for a request previously
// looked up with CacheLookup.
func (f *Front) CacheStore(ep Endpoint, model string, canonical, resp []byte) {
	if f.cache == nil || !ep.Cacheable {
		return
	}
	body := make([]byte, len(resp))
	copy(body, resp)
	f.cache.put(f.cache.key(ep.Upstream, model, canonical), body)
	if f.reg != nil {
		f.reg.Gauge("proxy_cache_entries").Set(float64(f.cache.len()))
	}
}

// BumpRevision advances a model's cache revision (invalidating its
// cached responses) and returns the new revision. Safe to call with
// the cache disabled (returns 0).
func (f *Front) BumpRevision(model string) uint64 {
	if f.cache == nil {
		return 0
	}
	return f.cache.bumpRevision(model)
}

// Revision returns a model's current cache revision.
func (f *Front) Revision(model string) uint64 {
	if f.cache == nil {
		return 0
	}
	return f.cache.revision(model)
}

// Cache lookup outcomes, indexing cacheTotals and rowNames.cache.
const (
	cacheHit = iota
	cacheMiss
	cacheBypass
)

// cacheTotals are the cache counters summed over every endpoint.
var cacheTotals = [...]string{"proxy_cache_hits", "proxy_cache_misses", "proxy_cache_bypass"}

// countCache bumps one per-endpoint cache counter and refreshes the
// hit-ratio gauges (hits over decided lookups; bypasses excluded).
// Gauges registered here surface in both the Prometheus /metrics
// exposition and the deterministic CSV export automatically.
func (f *Front) countCache(ep Endpoint, outcome int) {
	if f.reg == nil {
		return
	}
	names := ep.rowNames()
	f.reg.Counter(cacheTotals[outcome]).Inc()
	f.reg.Counter(names.cache[outcome]).Inc()
	hits := f.reg.Counter(cacheTotals[cacheHit]).Value()
	misses := f.reg.Counter(cacheTotals[cacheMiss]).Value()
	if total := hits + misses; total > 0 {
		f.reg.Gauge("proxy_cache_hit_ratio").Set(hits / total)
	}
	epHits := f.reg.Counter(names.cache[cacheHit]).Value()
	epMisses := f.reg.Counter(names.cache[cacheMiss]).Value()
	if total := epHits + epMisses; total > 0 {
		f.reg.Gauge(names.ratio).Set(epHits / total)
	}
}
