package core

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"

	"swapservellm/internal/obs"
	"swapservellm/internal/proxy"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
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

// handler builds the router's http.Handler: the proxy edge serves the
// endpoint table, and the router adds the node health and admin routes.
func (rt *router) handler() http.Handler {
	door := proxy.Door{
		Token:    rt.s.cfg.Global.AuthToken,
		Serve:    rt.serveEndpoint,
		Models:   rt.models,
		Registry: rt.s.reg,
		Tracer:   rt.s.tracer,
	}
	mux := rt.front.Mux(door)
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/admin/status", door.Auth(rt.adminStatus))
	mux.HandleFunc("/admin/inventory", door.Auth(rt.adminInventory))
	mux.HandleFunc("/admin/swap-in", door.Auth(rt.adminSwap(true)))
	mux.HandleFunc("/admin/swap-out", door.Auth(rt.adminSwap(false)))
	return mux
}

// serveEndpoint serves one decoded endpoint-table request: queue the
// canonical request for the model's worker and translate the backend's
// response back out.
func (rt *router) serveEndpoint(w http.ResponseWriter, r *http.Request, ep proxy.Endpoint, req *ir.Request, canonical []byte) {
	b, ok := rt.s.Backend(req.Model)
	if !ok {
		ir.WriteError(w, http.StatusNotFound, "invalid_request_error",
			fmt.Sprintf("model %q is not configured", req.Model))
		return
	}
	if b.State() == BackendFailed {
		ir.WriteError(w, http.StatusServiceUnavailable, "backend_failed",
			fmt.Sprintf("backend for %q failed to initialize", req.Model))
		return
	}

	now := rt.s.clock.Now()
	rt.s.observeArrival(b, now)
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
	// The router and the request's worker hand the item back and forth
	// through BlockOn waits keyed on it, each woken by the other's Wake.
	gate := simclock.GateFor(rt.s.clock)
	// A worker that answered owns the request until it retires it; wait
	// for that before returning. The last bytes of a buffered response
	// reach the client only when the handler returns, so the client can
	// never observe a request the server still counts as pending.
	answered := false
	defer func() {
		close(item.done)
		gate.Wake(item)
		if answered {
			gate.BlockOn(item, func() bool { return isClosed(item.retired) }, func() { <-item.retired })
		}
	}()

	// Queue-capacity check (§3.3 ②). queued counts the item before the
	// send, since a worker parked on the queue takes it directly and
	// len(b.queue) never shows it.
	b.queued.Add(1)
	select {
	case b.queue <- item:
		gate.Wake(b.queue)
	default:
		b.queued.Add(-1)
		rt.s.reg.Counter("rejected_queue_full").Inc()
		span.Fail(fmt.Errorf("queue full"))
		ir.WriteError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("request queue for %q is full", req.Model))
		return
	}

	gate.BlockOn(item, func() bool { return isClosed(item.answered) || ctx.Err() != nil }, func() {
		select {
		case <-ctx.Done():
		case <-item.answered:
		}
	})
	if answered = isClosed(item.answered); !answered {
		span.Fail(ctx.Err())
		ir.WriteError(w, http.StatusGatewayTimeout, "timeout", "request timed out or was cancelled")
		return
	}
	res := item.result
	if res.err != nil {
		rt.s.reg.Counter("forward_errors").Inc()
		span.Fail(res.err)
		ir.WriteError(w, http.StatusBadGateway, "backend_error", res.err.Error())
		return
	}
	defer res.resp.Body.Close()
	rt.relayResponse(w, res.resp, ep)
	rt.s.reg.Histogram("request_latency").Observe(rt.s.clock.Since(now))
}

// relayResponse delivers the backend response to the client in the
// endpoint's wire format. OpenAI endpoints pass bytes through
// untouched; Ollama endpoints go through the proxy edge, which
// translates the canonical JSON body or re-frames the canonical SSE
// stream as NDJSON.
func (rt *router) relayResponse(w http.ResponseWriter, resp *http.Response, ep proxy.Endpoint) {
	streaming := strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
	switch {
	case ep.Protocol == proxy.ProtocolOpenAI:
		relayRaw(w, resp, streaming)
	case streaming:
		// A broken upstream ends the stream early; the missing done line
		// tells the client.
		_ = rt.front.StreamRelay(w, ep).Relay(resp)
	default:
		full, err := io.ReadAll(resp.Body)
		if err != nil {
			ir.WriteError(w, http.StatusBadGateway, "backend_error", "reading backend response: "+err.Error())
			return
		}
		// A translation failure is already answered 503; the node keeps
		// no count of it.
		_ = rt.front.WriteResponse(w, ep, resp, full)
	}
}

// relayRaw relays the backend response (headers, status, body) to the
// client unchanged. A stream is flushed as data arrives so SSE stays
// real-time; a buffered body is left to net/http, which sends it when
// the handler returns.
func relayRaw(w http.ResponseWriter, resp *http.Response, streaming bool) {
	maps.Copy(w.Header(), resp.Header)
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

// models lists every configured model for the protocol listings.
func (rt *router) models() []proxy.ListedModel {
	var out []proxy.ListedModel
	for _, b := range rt.s.Backends() {
		out = append(out, proxy.ListedModel{Name: b.name, OwnedBy: string(b.engine), Model: b.model})
	}
	return out
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
	ir.WriteJSON(w, http.StatusOK, out)
}

// adminSwap triggers an explicit swap-in or swap-out (§4.2: models swap
// in "with either explicit API calls or incoming inference requests").
func (rt *router) adminSwap(in bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			ir.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST")
			return
		}
		name := r.URL.Query().Get("model")
		b, ok := rt.s.Backend(name)
		if !ok {
			ir.WriteError(w, http.StatusNotFound, "invalid_request_error",
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
			ir.WriteError(w, http.StatusConflict, "swap_failed", err.Error())
			return
		}
		ir.WriteJSON(w, http.StatusOK, b.Status())
	}
}

// adminInventory reports the node-local backend/snapshot inventory the
// cluster layer consumes for placement and rebalancing.
func (rt *router) adminInventory(w http.ResponseWriter, r *http.Request) {
	ir.WriteJSON(w, http.StatusOK, rt.s.Inventory())
}
