package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/obs"
	"swapservellm/internal/proxy"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// gateway is the cluster's multi-protocol front door. Every inference
// route is one row of the proxy endpoint table: the row names the
// codec that decodes the client wire format (OpenAI /v1/* or Ollama
// /api/*) into the IR, the canonical upstream path the request
// forwards to, the stream framing back toward the client (SSE or
// NDJSON), the default priority class, and cacheability. The gateway
// consults the IR-keyed response cache before placement, then asks the
// placement policy which node should serve the request and proxies to
// that node's router — translating buffered responses and stream
// events back into the client's protocol on the way out.
//
// When a node dies mid-request or reports overload the gateway fails
// the request over to another replica: buffered JSON responses retry
// invisibly, and interrupted streams resume on the new node by
// skipping the canonical upstream events the client has already
// received. Because every protocol forwards the same canonical
// encoding and stream events map 1:1 onto client frames, the
// delivered-event count is framing-agnostic — resume is exact under
// SSE and NDJSON alike.
type gateway struct {
	c     *Cluster
	front *proxy.Front

	// headers are the forward headers of each priority class for a
	// request carrying the gateway's own Authorization value, built once
	// per class (classFor admits only declared ones).
	headersMu sync.Mutex
	headers   map[string]http.Header
}

// proxyOutcome classifies one forwarding attempt.
type proxyOutcome int

const (
	// outcomeDone: the response (success or a client-caused error) was
	// delivered; stop.
	outcomeDone proxyOutcome = iota
	// outcomeRetry: the node failed in a way another replica can absorb
	// (connection refused/reset, queue full, backend failure).
	outcomeRetry
	// outcomeFatal: the client is gone or the stream is unrecoverable.
	outcomeFatal
)

// handler builds the gateway's http.Handler: the proxy edge serves the
// endpoint table, and the gateway adds its health and versioned admin
// routes.
func (g *gateway) handler() http.Handler {
	door := proxy.Door{
		Token:           g.c.cfg.Global.AuthToken,
		Serve:           g.serveEndpoint,
		Models:          g.models,
		TranslateFailed: g.translateFailed,
		Registry:        g.c.reg,
		Tracer:          g.c.tracer,
	}
	mux := g.front.Mux(door)
	mux.HandleFunc("/health", g.health)
	mux.HandleFunc("/admin/v1/cluster/status", door.Auth(g.status))
	mux.HandleFunc("/admin/v1/cluster/drain", door.Auth(g.drain(true)))
	mux.HandleFunc("/admin/v1/cluster/undrain", door.Auth(g.drain(false)))
	mux.HandleFunc("/admin/v1/models/revision", door.Auth(g.bumpRevision))
	return mux
}

// cacheHit is the shared X-Cache header value of a cache hit (see
// ir.JSONType).
var cacheHit = []string{"hit"}

// translateFailed counts a request answered 503 translate_failed.
func (g *gateway) translateFailed() { g.c.reg.Counter("gateway_translate_failures").Inc() }

// serveEndpoint serves one endpoint-table request: consult the response
// cache, run admission, then place → forward → maybe-fail-over.
func (g *gateway) serveEndpoint(w http.ResponseWriter, r *http.Request, ep proxy.Endpoint, model string, streaming bool, canonical []byte) {
	class, err := g.c.classFor(model, r.Header.Get("X-Priority-Class"), ep.Class)
	if err != nil {
		ir.WriteError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
		return
	}

	g.c.reg.Counter("gateway_requests_total").Inc()
	g.c.reg.Counter(ep.RequestsCounter()).Inc()

	ctx := g.c.traceCtx(r.Context())
	var span *obs.Span
	ctx, span = obs.Start(ctx, "gateway.request",
		obs.String("model", model), obs.String("path", ep.Path),
		obs.String("protocol", string(ep.Protocol)), obs.String("class", class))
	defer span.End()

	// The response cache sits in front of placement and admission: a
	// hit never consumes node capacity, so it is served even when the
	// class would otherwise be shed. The key is the canonical upstream
	// encoding, so protocol siblings (/api/chat and /v1/chat/completions)
	// share entries.
	noStore := strings.Contains(r.Header.Get("Cache-Control"), "no-store")
	if !streaming {
		if cached, ok := g.front.CacheLookup(ep, model, canonical, noStore); ok {
			out, terr := g.front.TranslateResponse(ep, cached)
			if terr == nil {
				span.Event("cache.hit", obs.String("endpoint", ep.Path))
				h := w.Header()
				h["Content-Type"], h["X-Cache"] = ir.JSONType, cacheHit
				w.WriteHeader(http.StatusOK)
				w.Write(out)
				return
			}
			span.Event("cache.translate_error", obs.String("error", terr.Error()))
		}
	}

	// Predictive scheduling: feed the demand predictor with every
	// offered arrival, then run admission control. A shed is a 429 with
	// Retry-After — the client's cue to back off until the class's
	// guaranteed share refills.
	if sc := g.c.sched; sc != nil {
		now := g.c.clock.Now()
		sc.pred.Observe(model, now)
		if sc.adm != nil {
			wait := sc.adm.PredictedWait(class)
			dec := sc.adm.Decide(class, wait, now)
			if !dec.Admit {
				span.Fail(fmt.Errorf("shed class %s (%s): predicted wait %s", class, dec.Reason, wait))
				retry := int(dec.RetryAfter / time.Second)
				if retry < 1 {
					retry = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(retry))
				ir.WriteError(w, http.StatusTooManyRequests, "rate_limit_exceeded",
					fmt.Sprintf("class %q shed under load: predicted wait %s exceeds the class SLO; retry after %ds", class, wait.Round(time.Millisecond), retry))
				return
			}
			sc.adm.NoteStart(class)
			t0 := now
			defer func() { sc.adm.NoteDone(class, g.c.clock.Since(t0)) }()
		}
	}

	// stream tracks delivery across attempts so a failover resumes
	// where the dead node stopped, translating each canonical upstream
	// event into the endpoint's framing.
	stream := g.front.StreamRelay(w, ep)
	if inj := g.c.chaosInj; inj != nil {
		// Injected mid-stream disconnect: drop the connection as if the
		// node died between two events.
		stream.Cut = func() error {
			err := inj.At(chaos.SiteSSE).Err
			if err != nil {
				obs.AnnotateFault(ctx, string(chaos.SiteSSE), err)
			}
			return err
		}
	}
	tried := make(map[string]bool)
	var lastErr string
	for attempt := 0; attempt < g.c.retryLimit; attempt++ {
		id, warm, ok := g.place(model, tried)
		if !ok {
			break
		}
		tried[id] = true
		span.Event("place", obs.String("node", id),
			obs.Bool("warm", warm), obs.Int("attempt", attempt))
		// Placement only offers registered nodes, and none leaves.
		node, _ := g.c.registry.Node(id)
		if attempt == 0 {
			g.recordPlacement(node, warm)
			if sc := g.c.sched; sc != nil && sc.pw != nil {
				sc.pw.NotePlacement(model, warm, g.c.clock.Now())
			}
		} else {
			g.c.reg.Counter("cross_node_retries").Inc()
			// A resumed stream counts its failover before its terminal
			// frame goes out, so a client that has read the whole
			// stream sees it.
			stream.Done = g.countFailover
		}
		outcome, errMsg := g.forward(ctx, w, node, ep, model, canonical, r.Header.Get("Authorization"), class, stream)
		switch outcome {
		case outcomeDone:
			// A buffered response reaches the client only when the
			// handler returns; a stream was counted by stream.Done.
			if attempt > 0 && !stream.Started() {
				g.countFailover()
			}
			return
		case outcomeFatal:
			span.Fail(fmt.Errorf("%s", errMsg))
			return
		}
		span.Event("failover", obs.String("node", id), obs.String("error", errMsg))
		lastErr = errMsg
	}

	// Every eligible node was tried (or none existed).
	g.c.reg.Counter("gateway_unrouteable").Inc()
	span.Fail(fmt.Errorf("unrouteable after %d attempts", len(tried)))
	if stream.Started() {
		// Mid-stream with no replica left: all we can do is end the
		// stream; the missing terminal frame ([DONE] or the done:true
		// line) tells the client it was truncated.
		return
	}
	if len(tried) == 0 {
		ir.WriteError(w, http.StatusNotFound, "invalid_request_error",
			fmt.Sprintf("model %q is not available on any healthy node", model))
		return
	}
	msg := fmt.Sprintf("all %d eligible nodes failed for %q", len(tried), model)
	if lastErr != "" {
		msg += ": " + lastErr
	}
	ir.WriteError(w, http.StatusServiceUnavailable, "no_available_node", msg)
}

// countFailover counts a request a replica completed after a failover.
func (g *gateway) countFailover() { g.c.reg.Counter("failover_successes").Inc() }

// place asks the policy for the next node, excluding already-tried
// ones. Returns the node ID and whether the placement was a locality
// hit (warm backend).
func (g *gateway) place(model string, tried map[string]bool) (string, bool, bool) {
	cands := g.c.registry.Candidates(model)
	if len(tried) > 0 {
		kept := cands[:0]
		for _, c := range cands {
			if !tried[c.NodeID] {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	if len(cands) == 0 {
		return "", false, false
	}
	idx, ok := g.c.policy.Select(model, cands)
	if !ok || idx < 0 || idx >= len(cands) {
		return "", false, false
	}
	return cands[idx].NodeID, cands[idx].Presence == PresenceWarm, true
}

// recordPlacement updates the placement-quality metrics for a
// first-attempt routing decision.
func (g *gateway) recordPlacement(node *Node, warm bool) {
	total := g.c.reg.Counter("placement_total")
	hits := g.c.reg.Counter("placement_hits")
	total.Inc()
	if warm {
		hits.Inc()
	} else {
		g.c.reg.Counter("placement_misses").Inc()
	}
	node.metrics.placements.Get().Inc()
	if t := total.Value(); t > 0 {
		g.c.reg.Gauge("placement_hit_ratio").Set(hits.Value() / t)
	}
}

// forward sends the canonical request to one node's upstream path and
// relays its response. The error string is only meaningful for
// outcomeRetry.
func (g *gateway) forward(ctx context.Context, w http.ResponseWriter, node *Node, ep proxy.Endpoint, model string, canonical []byte, authHeader, class string, stream *proxy.StreamRelay) (proxyOutcome, string) {
	base := node.Server().Endpoint()
	if base == nil {
		return outcomeRetry, fmt.Sprintf("node %s: not serving", node.ID())
	}
	req := simclock.NewRequest(ctx, http.MethodPost, base, ep.Upstream, canonical, g.header(authHeader, class))
	// An injected proxy fault is indistinguishable from a refused
	// connection: fence the node and try a replica. A delay-only outcome
	// models a slow upstream link.
	if out := g.c.chaosInj.At(chaos.SiteProxy); out.Err != nil || out.Delay > 0 {
		if out.Delay > 0 {
			g.c.clock.Sleep(out.Delay)
		}
		if out.Err != nil {
			obs.AnnotateFault(ctx, string(chaos.SiteProxy), out.Err)
			g.c.registry.ReportFailure(node.ID())
			return outcomeRetry, fmt.Sprintf("node %s: %v", node.ID(), out.Err)
		}
	}
	resp, err := simclock.Send(g.c.rt, req)
	if err != nil {
		if ctx.Err() != nil {
			return outcomeFatal, ctx.Err().Error()
		}
		// Connection-level failure: the node is gone. Fence it now rather
		// than waiting for the heartbeat loop to notice.
		g.c.registry.ReportFailure(node.ID())
		return outcomeRetry, err.Error()
	}
	defer resp.Body.Close()

	if retriableStatus(resp.StatusCode) {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return outcomeRetry, fmt.Sprintf("node %s: HTTP %d: %s", node.ID(), resp.StatusCode, bytes.TrimSpace(msg))
	}

	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		switch err := stream.Relay(resp); {
		case err == nil:
			return outcomeDone, ""
		case errors.Is(err, proxy.ErrStreamCut):
			return outcomeRetry, fmt.Sprintf("node %s: %v", node.ID(), err)
		default:
			return outcomeFatal, fmt.Sprintf("node %s: %v", node.ID(), err)
		}
	}

	// Buffered (non-streaming) response: read it fully before touching
	// the client connection so a mid-body failure can still fail over.
	full, err := io.ReadAll(resp.Body)
	if err != nil {
		g.c.registry.ReportFailure(node.ID())
		return outcomeRetry, fmt.Sprintf("node %s: reading response: %v", node.ID(), err)
	}
	if err := g.front.WriteResponse(w, ep, resp, full); err != nil {
		g.translateFailed()
	} else if resp.StatusCode == http.StatusOK {
		g.front.CacheStore(ep, model, canonical, full)
	}
	return outcomeDone, ""
}

// header returns the request header of a forward, shared like
// simclock.JSONHeader: nobody writes to it. A request whose
// Authorization is not the gateway's own token gets a header of its
// own, so the per-class set stays as small as the class list.
func (g *gateway) header(auth, class string) http.Header {
	if auth == "" && class == "" {
		return simclock.JSONHeader
	}
	tok := g.c.cfg.Global.AuthToken
	if own := tok == "" && auth == "" || tok != "" && auth == "Bearer "+tok; !own {
		return forwardHeader(auth, class)
	}
	g.headersMu.Lock()
	defer g.headersMu.Unlock()
	h, ok := g.headers[class]
	if !ok {
		if g.headers == nil {
			g.headers = make(map[string]http.Header)
		}
		h = forwardHeader(auth, class)
		g.headers[class] = h
	}
	return h
}

// forwardHeader builds a forward's request header.
func forwardHeader(auth, class string) http.Header {
	h := http.Header{"Content-Type": simclock.JSONHeader["Content-Type"]}
	if auth != "" {
		h["Authorization"] = []string{auth}
	}
	if class != "" {
		// Thread the resolved priority class through the request
		// envelope so node-side tooling can attribute work to classes.
		h["X-Priority-Class"] = []string{class}
	}
	return h
}

// retriableStatus reports whether a node-level status is worth trying
// on another replica: queue saturation and backend failures are, client
// errors are not.
func retriableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// models lists the union of models deployed on healthy nodes.
func (g *gateway) models() []proxy.ListedModel {
	var out []proxy.ListedModel
	seen := make(map[string]bool)
	for _, n := range g.c.registry.Nodes() {
		if n.State() != NodeHealthy {
			continue
		}
		for _, b := range n.Server().Backends() {
			if seen[b.Name()] {
				continue
			}
			seen[b.Name()] = true
			out = append(out, proxy.ListedModel{Name: b.Name(), OwnedBy: string(b.EngineKind()), Model: b.Model()})
		}
	}
	return out
}

// health reports gateway liveness: OK once at least one node is
// healthy.
func (g *gateway) health(w http.ResponseWriter, r *http.Request) {
	var healthy int
	for _, n := range g.c.registry.Nodes() {
		if n.State() == NodeHealthy {
			healthy++
		}
	}
	if healthy == 0 {
		ir.WriteError(w, http.StatusServiceUnavailable, "no_healthy_nodes", "no cluster node is healthy")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// status reports every node's capacity/utilization report.
func (g *gateway) status(w http.ResponseWriter, r *http.Request) {
	var out struct {
		Placement string   `json:"placement"`
		Nodes     []Report `json:"nodes"`
	}
	out.Placement = g.c.policy.Name()
	for _, n := range g.c.registry.Nodes() {
		out.Nodes = append(out.Nodes, n.Report())
	}
	ir.WriteJSON(w, http.StatusOK, out)
}

// drain moves a node into (or out of) the draining state.
func (g *gateway) drain(enter bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			ir.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST")
			return
		}
		id := r.URL.Query().Get("node")
		var err error
		if enter {
			err = g.c.registry.Drain(id)
		} else {
			err = g.c.registry.Undrain(id)
		}
		if err != nil {
			ir.WriteError(w, http.StatusNotFound, "invalid_request_error", err.Error())
			return
		}
		n, _ := g.c.registry.Node(id)
		ir.WriteJSON(w, http.StatusOK, map[string]string{"node": id, "state": n.State().String()})
	}
}

// bumpRevision advances a model's response-cache revision, invalidating
// its cached entries — the operator hook for weight updates (a new
// fine-tune under the same name must never serve predecessor answers).
func (g *gateway) bumpRevision(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		ir.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST")
		return
	}
	model := r.URL.Query().Get("model")
	if model == "" {
		ir.WriteError(w, http.StatusBadRequest, "invalid_request_error", "model query parameter required")
		return
	}
	rev := g.front.BumpRevision(model)
	ir.WriteJSON(w, http.StatusOK, map[string]interface{}{"model": model, "revision": rev})
}
