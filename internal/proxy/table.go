package proxy

import (
	"net/http"
	"strings"

	"swapservellm/internal/proxy/ir"
)

// Protocol names a client wire protocol with a registered codec.
type Protocol string

// Registered protocols.
const (
	ProtocolOpenAI Protocol = "openai"
	ProtocolOllama Protocol = "ollama"
)

// Endpoint is one row of the declarative routing table: everything the
// gateway and node router need to serve a path — method, protocol
// family (which codec decodes it), request family, stream framing
// toward the client, priority-class tag, cacheability, and the
// canonical upstream path the request forwards to. Adding an endpoint
// is adding a row.
type Endpoint struct {
	// Path is the client-facing route.
	Path string
	// Method is the accepted HTTP method.
	Method string
	// Protocol selects the codec that speaks this endpoint's wire
	// format.
	Protocol Protocol
	// Family is the request family (canonical payload shape).
	Family ir.Family
	// Framing is the stream framing toward this endpoint's clients
	// (empty for endpoints that never stream).
	Framing ir.Framing
	// Class is the default priority-class tag for admission control,
	// used when neither the client header nor the model configuration
	// names a class. Only honored when the deployment declares it.
	Class string
	// Cacheable marks responses eligible for the front-door response
	// cache (non-streaming requests only).
	Cacheable bool
	// Upstream is the canonical node/engine path the request forwards
	// to (empty for endpoints the gateway answers itself).
	Upstream string

	// names are the row's metric names, formatted once by New; nil on
	// an endpoint built outside a Front's table.
	names *rowNames
}

// rowNames are one table row's metric names, formatted once when the
// table is built so that serving a request formats none.
type rowNames struct {
	metric   string                   // MetricName
	requests string                   // RequestsCounter
	cache    [len(cacheTotals)]string // cacheTotals[i] + "_" + metric
	ratio    string                   // the row's cache hit-ratio gauge
}

// metricNameReplacer maps a path's separators to metric-name
// underscores.
var metricNameReplacer = strings.NewReplacer("/", "_", ".", "_", "-", "_")

func newRowNames(path string) *rowNames {
	metric := metricNameReplacer.Replace(strings.TrimPrefix(path, "/"))
	n := &rowNames{
		metric:   metric,
		requests: "gateway_requests_" + metric,
		ratio:    "proxy_cache_hit_ratio_" + metric,
	}
	for i, total := range cacheTotals {
		n.cache[i] = total + "_" + metric
	}
	return n
}

// rowNames returns the names New formatted for the row, or formats
// them for an endpoint built by hand.
func (e Endpoint) rowNames() *rowNames {
	if e.names != nil {
		return e.names
	}
	return newRowNames(e.Path)
}

// Streaming reports whether the endpoint can stream.
func (e Endpoint) Streaming() bool { return e.Framing != "" }

// MetricName renders the endpoint path as a metric-name fragment
// ("/v1/chat/completions" → "v1_chat_completions").
func (e Endpoint) MetricName() string { return e.rowNames().metric }

// RequestsCounter names the gateway's per-row request counter
// ("gateway_requests_" + MetricName).
func (e Endpoint) RequestsCounter() string { return e.rowNames().requests }

// DefaultTable returns the front door's endpoint table: the OpenAI
// family (/v1/*, SSE framing) and the Ollama family (/api/*, NDJSON
// framing), all translating through the IR onto the same canonical
// upstream paths.
func DefaultTable() []Endpoint {
	return []Endpoint{
		{Path: "/v1/chat/completions", Method: http.MethodPost, Protocol: ProtocolOpenAI,
			Family: ir.FamilyChat, Framing: ir.FramingSSE, Class: "interactive",
			Cacheable: true, Upstream: "/v1/chat/completions"},
		{Path: "/v1/completions", Method: http.MethodPost, Protocol: ProtocolOpenAI,
			Family: ir.FamilyCompletion, Framing: ir.FramingSSE, Class: "interactive",
			Cacheable: true, Upstream: "/v1/completions"},
		{Path: "/v1/embeddings", Method: http.MethodPost, Protocol: ProtocolOpenAI,
			Family: ir.FamilyEmbeddings, Class: "batch",
			Cacheable: true, Upstream: "/v1/embeddings"},
		{Path: "/v1/rerank", Method: http.MethodPost, Protocol: ProtocolOpenAI,
			Family: ir.FamilyRerank, Class: "batch",
			Cacheable: true, Upstream: "/v1/rerank"},
		{Path: "/v1/models", Method: http.MethodGet, Protocol: ProtocolOpenAI,
			Family: ir.FamilyList},
		{Path: "/api/chat", Method: http.MethodPost, Protocol: ProtocolOllama,
			Family: ir.FamilyChat, Framing: ir.FramingNDJSON, Class: "interactive",
			Cacheable: true, Upstream: "/v1/chat/completions"},
		{Path: "/api/generate", Method: http.MethodPost, Protocol: ProtocolOllama,
			Family: ir.FamilyGenerate, Framing: ir.FramingNDJSON, Class: "interactive",
			Cacheable: true, Upstream: "/v1/chat/completions"},
		{Path: "/api/tags", Method: http.MethodGet, Protocol: ProtocolOllama,
			Family: ir.FamilyList},
	}
}
