package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"swapservellm/internal/obs"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy"
	"swapservellm/internal/proxy/ir"
)

// router is the OpenAI API router of §3.1 ①, grown into the same
// multi-protocol front door the cluster gateway runs: every inference
// route is one row of the shared proxy endpoint table, decoded through
// the IR into the canonical OpenAI encoding the engines speak, queued
// for the model workers, and translated back into the client's wire
// format (including NDJSON stream framing for Ollama clients) on the
// way out. A standalone swapserved node therefore speaks both
// protocols identically to a full cluster deployment.
type router struct {
	s     *Server
	front *proxy.Front
}

// newRouter wires the front door: the node keeps no response cache
// (caching is the gateway's job — a node must stay deterministic for
// cross-node stream resume) and no chaos sites (proxy.translate and
// proxy.cache are gateway-level).
func newRouter(s *Server) *router {
	return &router{s: s, front: proxy.New(proxy.WithClock(s.clock))}
}

// handler builds the router's http.Handler: one loop over the endpoint
// table plus the node admin and observability routes.
func (rt *router) handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range rt.front.Table() {
		ep := ep
		switch {
		case ep.Upstream != "":
			mux.HandleFunc(ep.Path, rt.auth(func(w http.ResponseWriter, r *http.Request) {
				rt.serveEndpoint(w, r, ep)
			}))
		case ep.Path == "/v1/models":
			mux.HandleFunc(ep.Path, rt.auth(rt.listModels))
		case ep.Path == "/api/tags":
			mux.HandleFunc(ep.Path, rt.auth(rt.listTags))
		}
	}
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/admin/status", rt.auth(rt.adminStatus))
	mux.HandleFunc("/admin/inventory", rt.auth(rt.adminInventory))
	mux.HandleFunc("/admin/swap-in", rt.auth(rt.adminSwap(true)))
	mux.HandleFunc("/admin/swap-out", rt.auth(rt.adminSwap(false)))
	mux.HandleFunc("/metrics", rt.auth(rt.metricsProm))
	mux.HandleFunc("/metrics.csv", rt.auth(rt.metricsCSV))
	mux.Handle("/debug/trace", rt.s.tracer.Handler())
	return mux
}

// auth enforces the optional bearer token.
func (rt *router) auth(next http.HandlerFunc) http.HandlerFunc {
	token := rt.s.cfg.Global.AuthToken
	if token == "" {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if got != token {
			openai.WriteError(w, http.StatusUnauthorized, "invalid_api_key", "invalid or missing API key")
			return
		}
		next(w, r)
	}
}

// maxBodyBytes bounds request payloads (1 MiB covers any chat request).
const maxBodyBytes = 1 << 20

// serveEndpoint runs one endpoint-table row: decode the client wire
// format into the IR, queue the canonical request for the model's
// worker, and translate the backend's response back out.
func (rt *router) serveEndpoint(w http.ResponseWriter, r *http.Request, ep proxy.Endpoint) {
	if r.Method != ep.Method {
		openai.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use "+ep.Method)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		openai.WriteError(w, http.StatusBadRequest, "invalid_request_error", "reading body: "+err.Error())
		return
	}
	req, err := rt.front.Decode(ep, body)
	if err != nil {
		if errors.Is(err, proxy.ErrTranslate) {
			openai.WriteError(w, http.StatusServiceUnavailable, "translate_failed", err.Error())
			return
		}
		openai.WriteError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
		return
	}
	canonical, err := rt.front.EncodeUpstream(req)
	if err != nil {
		openai.WriteError(w, http.StatusServiceUnavailable, "translate_failed", err.Error())
		return
	}

	b, ok := rt.s.Backend(req.Model)
	if !ok {
		openai.WriteError(w, http.StatusNotFound, "invalid_request_error",
			fmt.Sprintf("model %q is not configured", req.Model))
		return
	}
	if b.State() == BackendFailed {
		openai.WriteError(w, http.StatusServiceUnavailable, "backend_failed",
			fmt.Sprintf("backend for %q failed to initialize", req.Model))
		return
	}

	now := rt.s.clock.Now()
	b.touch(now)
	rt.s.reg.Counter("requests_total").Inc()
	rt.s.reg.Counter("requests_" + b.name).Inc()

	ctx := rt.s.traceCtx(r.Context())
	var span *obs.Span
	ctx, span = obs.Start(ctx, "request",
		obs.String("model", req.Model), obs.String("path", ep.Path),
		obs.String("protocol", string(ep.Protocol)))
	defer span.End()
	if timeout := rt.s.cfg.ResponseTimeout(); timeout > 0 {
		// The response timeout is expressed in simulated seconds; convert
		// to wall time via the clock scale for the context deadline.
		wall := rt.s.toWall(timeout)
		var cancel func()
		ctx, cancel = contextWithTimeout(ctx, wall)
		defer cancel()
	}

	item := newQueuedRequest(ctx, ep.Upstream, canonical, now)
	// A worker that answered owns the request until it retires it; wait
	// for that before returning. The last bytes of a buffered response
	// reach the client only when the handler returns, so the client can
	// never observe a request the server still counts as pending.
	answered := false
	defer func() {
		close(item.done)
		if answered {
			<-item.retired
		}
	}()

	// Queue-capacity check (§3.3 ②).
	select {
	case b.queue <- item:
	default:
		rt.s.reg.Counter("rejected_queue_full").Inc()
		span.Fail(fmt.Errorf("queue full"))
		openai.WriteError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("request queue for %q is full", req.Model))
		return
	}

	select {
	case <-ctx.Done():
		span.Fail(ctx.Err())
		openai.WriteError(w, http.StatusGatewayTimeout, "timeout", "request timed out or was cancelled")
		return
	case res := <-item.result:
		answered = true
		if res.err != nil {
			rt.s.reg.Counter("forward_errors").Inc()
			span.Fail(res.err)
			openai.WriteError(w, http.StatusBadGateway, "backend_error", res.err.Error())
			return
		}
		defer res.resp.Body.Close()
		rt.relayResponse(w, res.resp, ep)
		rt.s.reg.Histogram("request_latency").Observe(rt.s.clock.Since(now))
	}
}

// relayResponse delivers the backend response to the client in the
// endpoint's wire format. OpenAI endpoints pass bytes through
// untouched; Ollama endpoints translate the canonical JSON body or
// re-frame the canonical SSE stream as NDJSON, flushing per frame so
// streams stay real-time.
func (rt *router) relayResponse(w http.ResponseWriter, resp *http.Response, ep proxy.Endpoint) {
	tr := rt.front.Translator(ep)
	streaming := strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
	if tr.Passthrough() {
		relayRaw(w, resp, streaming)
		return
	}
	if streaming {
		rt.relayTranslatedStream(w, resp, tr)
		return
	}
	full, err := io.ReadAll(resp.Body)
	if err != nil {
		openai.WriteError(w, http.StatusBadGateway, "backend_error", "reading backend response: "+err.Error())
		return
	}
	if resp.StatusCode != http.StatusOK {
		// Error envelopes pass through untranslated: every protocol's
		// tooling understands a JSON error object.
		copyResponseHeaders(w, resp)
		w.WriteHeader(resp.StatusCode)
		w.Write(full)
		return
	}
	out, err := rt.front.TranslateResponse(ep, full)
	if err != nil {
		openai.WriteError(w, http.StatusServiceUnavailable, "translate_failed", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// relayTranslatedStream re-frames the backend's canonical SSE stream
// into the endpoint's client framing, one event at a time.
func (rt *router) relayTranslatedStream(w http.ResponseWriter, resp *http.Response, tr *proxy.StreamTranslator) {
	w.Header().Set("Content-Type", tr.ContentType())
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	br := bufio.NewReader(resp.Body)
	for {
		event, err := ir.ReadSSEEvent(br)
		if err != nil {
			return // truncated upstream: the missing done line tells the client
		}
		frames, done, terr := tr.Frames(event)
		if terr != nil {
			return
		}
		if len(frames) > 0 {
			if _, werr := w.Write(frames); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if done {
			return
		}
	}
}

// relayRaw relays the backend response (headers, status, body) to the
// client unchanged. A stream is flushed as data arrives so SSE stays
// real-time; a buffered body is left to net/http, which sends it when
// the handler returns.
func relayRaw(w http.ResponseWriter, resp *http.Response, streaming bool) {
	copyResponseHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	if !streaming {
		// The status line is already out, so a copy error (client or
		// engine gone mid-body) leaves nothing to report.
		_, _ = io.Copy(w, resp.Body)
		return
	}
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func copyResponseHeaders(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
}

// listModels reports every configured model with its protocol
// capabilities.
func (rt *router) listModels(w http.ResponseWriter, r *http.Request) {
	list := openai.ModelList{Object: "list"}
	for _, b := range rt.s.Backends() {
		list.Data = append(list.Data, openai.ModelInfo{
			ID:           b.name,
			Object:       "model",
			Created:      rt.s.clock.Now().Unix(),
			OwnedBy:      string(b.engine),
			Capabilities: b.model.Capabilities(),
		})
	}
	openai.WriteJSON(w, http.StatusOK, list)
}

// listTags is the Ollama protocol's model listing (GET /api/tags).
func (rt *router) listTags(w http.ResponseWriter, r *http.Request) {
	var tags ir.OllamaTagsResponse
	for _, b := range rt.s.Backends() {
		tags.Models = append(tags.Models, proxy.TagFor(b.name, b.model))
	}
	openai.WriteJSON(w, http.StatusOK, tags)
}

// adminStatus reports backend and GPU state.
func (rt *router) adminStatus(w http.ResponseWriter, r *http.Request) {
	type gpuStatus struct {
		ID          int     `json:"id"`
		UsedGiB     float64 `json:"used_gib"`
		TotalGiB    float64 `json:"total_gib"`
		Utilization float64 `json:"utilization"`
	}
	var out struct {
		Backends []BackendStatus `json:"backends"`
		GPUs     []gpuStatus     `json:"gpus"`
	}
	for _, b := range rt.s.Backends() {
		out.Backends = append(out.Backends, b.Status())
	}
	for _, st := range rt.s.tm.Monitor().Sample() {
		out.GPUs = append(out.GPUs, gpuStatus{
			ID:          st.ID,
			UsedGiB:     float64(st.UsedBytes) / (1 << 30),
			TotalGiB:    float64(st.TotalBytes) / (1 << 30),
			Utilization: st.Utilization,
		})
	}
	openai.WriteJSON(w, http.StatusOK, out)
}

// adminSwap triggers an explicit swap-in or swap-out (§4.2: models swap
// in "with either explicit API calls or incoming inference requests").
func (rt *router) adminSwap(in bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			openai.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST")
			return
		}
		name := r.URL.Query().Get("model")
		b, ok := rt.s.Backend(name)
		if !ok {
			openai.WriteError(w, http.StatusNotFound, "invalid_request_error",
				fmt.Sprintf("model %q is not configured", name))
			return
		}
		var err error
		if in {
			err = rt.s.sched.EnsureRunning(r.Context(), b)
		} else {
			err = rt.s.ctrl.SwapOut(r.Context(), b)
		}
		if err != nil {
			openai.WriteError(w, http.StatusConflict, "swap_failed", err.Error())
			return
		}
		openai.WriteJSON(w, http.StatusOK, b.Status())
	}
}

// adminInventory reports the node-local backend/snapshot inventory the
// cluster layer consumes for placement and rebalancing.
func (rt *router) adminInventory(w http.ResponseWriter, r *http.Request) {
	openai.WriteJSON(w, http.StatusOK, rt.s.Inventory())
}

// metricsProm serves the registry in the Prometheus text exposition
// format (scrapeable /metrics).
func (rt *router) metricsProm(w http.ResponseWriter, r *http.Request) {
	rt.s.reg.Handler().ServeHTTP(w, r)
}

// metricsCSV dumps the metrics registry as CSV (the paper's analysis
// format).
func (rt *router) metricsCSV(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/csv")
	rt.s.reg.WriteCSV(w)
}
