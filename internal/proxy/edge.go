package proxy

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"

	"swapservellm/internal/metrics"
	"swapservellm/internal/models"
	"swapservellm/internal/obs"
	"swapservellm/internal/proxy/ir"
)

// maxBodyBytes bounds an inference request body (1 MiB covers any chat
// request); a larger one is answered 413.
const maxBodyBytes = 1 << 20

// Door is what a server plugs into the front door's HTTP edge. The edge
// owns everything about serving a table row over HTTP — the bearer
// token, the inference prelude (method check, bounded body read,
// decode, canonical encode), the protocol model listings and the
// observability routes — so the server supplies only what is its own:
// how a decoded request is served, and which models it lists.
type Door struct {
	// Token, when set, must be presented as a Bearer token on every
	// route the edge mounts or Auth wraps.
	Token string
	// Serve answers one decoded inference request; canonical is its
	// upstream (OpenAI) encoding.
	Serve func(w http.ResponseWriter, r *http.Request, ep Endpoint, req *ir.Request, canonical []byte)
	// Models lists the served models for /v1/models and /api/tags.
	Models func() []ListedModel
	// TranslateFailed, when set, is called each time the prelude answers
	// a translation failure with 503.
	TranslateFailed func()
	// Registry backs /metrics and /metrics.csv; Tracer backs
	// /debug/trace.
	Registry *metrics.Registry
	Tracer   *obs.Tracer
}

// ListedModel is one entry of a server's model listing.
type ListedModel struct {
	Name    string
	OwnedBy string
	Model   models.Model
}

// Auth wraps next with the door's bearer-token check.
func (d Door) Auth(next http.HandlerFunc) http.HandlerFunc {
	if d.Token == "" {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ") != d.Token {
			ir.WriteError(w, http.StatusUnauthorized, "invalid_api_key", "invalid or missing API key")
			return
		}
		next(w, r)
	}
}

// Mux builds the edge's routes, each behind the door's token: one
// handler per endpoint-table row, plus /metrics, /metrics.csv and
// /debug/trace. The server adds its own routes (health, admin) to the
// returned mux, wrapping them with d.Auth.
func (f *Front) Mux(d Door) *http.ServeMux {
	mux := http.NewServeMux()
	for _, ep := range f.table {
		switch {
		case ep.Upstream != "":
			mux.HandleFunc(ep.Path, d.Auth(func(w http.ResponseWriter, r *http.Request) {
				f.serve(d, w, r, ep)
			}))
		case ep.Family == ir.FamilyList:
			mux.HandleFunc(ep.Path, d.Auth(func(w http.ResponseWriter, r *http.Request) {
				f.writeListing(w, ep, d.Models())
			}))
		}
	}
	mux.HandleFunc("/metrics", d.Auth(d.Registry.Handler().ServeHTTP))
	mux.HandleFunc("/metrics.csv", d.Auth(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		d.Registry.WriteCSV(w)
	}))
	mux.HandleFunc("/debug/trace", d.Auth(d.Tracer.Handler().ServeHTTP))
	return mux
}

// serve is the inference prelude every table row shares: it turns the
// client's bytes into the IR and its canonical encoding, answering the
// client itself when that fails, and hands the result to the server.
func (f *Front) serve(d Door, w http.ResponseWriter, r *http.Request, ep Endpoint) {
	if r.Method != ep.Method {
		ir.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use "+ep.Method)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			ir.WriteError(w, http.StatusRequestEntityTooLarge, "invalid_request_error",
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
			return
		}
		ir.WriteError(w, http.StatusBadRequest, "invalid_request_error", "reading body: "+err.Error())
		return
	}
	req, err := f.Decode(ep, body)
	if err != nil && !errors.Is(err, ErrTranslate) {
		ir.WriteError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
		return
	}
	var canonical []byte
	if err == nil {
		canonical, err = f.EncodeUpstream(req)
	}
	if err != nil {
		// The pipeline is degraded, not the request: a well-formed 503.
		if d.TranslateFailed != nil {
			d.TranslateFailed()
		}
		ir.WriteError(w, http.StatusServiceUnavailable, "translate_failed", err.Error())
		return
	}
	d.Serve(w, r, ep, req, canonical)
}

// writeListing answers a model-listing row in its protocol's shape.
func (f *Front) writeListing(w http.ResponseWriter, ep Endpoint, listed []ListedModel) {
	if ep.Protocol == ProtocolOllama {
		var tags ir.OllamaTagsResponse
		for _, m := range listed {
			tags.Models = append(tags.Models, tagFor(m.Name, m.Model))
		}
		ir.WriteJSON(w, http.StatusOK, tags)
		return
	}
	var created int64
	if f.clock != nil {
		created = f.clock.Now().Unix()
	}
	list := ir.ModelList{Object: "list"}
	for _, m := range listed {
		list.Data = append(list.Data, ir.ModelInfo{
			ID:           m.Name,
			Object:       "model",
			Created:      created,
			OwnedBy:      m.OwnedBy,
			Capabilities: m.Model.Capabilities(),
		})
	}
	ir.WriteJSON(w, http.StatusOK, list)
}

// tagFor renders one catalog model as an Ollama GET /api/tags entry.
func tagFor(name string, m models.Model) ir.OllamaTag {
	return ir.OllamaTag{
		Name:  name,
		Model: name,
		Size:  m.WeightBytes(),
		Details: ir.OllamaTagDetails{
			Family:            string(m.Family),
			ParameterSize:     fmt.Sprintf("%.1fB", m.ParamsB()),
			QuantizationLevel: string(m.Quant),
		},
	}
}

// WriteResponse delivers a fully read canonical upstream response in
// the endpoint's wire format. A 200 is translated for the client; an
// error envelope passes through with its headers, since every
// protocol's tooling understands a JSON error object. A translation
// failure is answered 503 translate_failed and returned.
func (f *Front) WriteResponse(w http.ResponseWriter, ep Endpoint, resp *http.Response, body []byte) error {
	if resp.StatusCode != http.StatusOK {
		maps.Copy(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return nil
	}
	out, err := f.TranslateResponse(ep, body)
	if err != nil {
		ir.WriteError(w, http.StatusServiceUnavailable, "translate_failed", err.Error())
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	return nil
}

// StreamRelay re-frames canonical upstream SSE streams into one client
// response, counting the upstream events delivered. Relaying a second
// upstream — a failover replica's — skips the events the client already
// has, so the client sees one seamless stream. The count is over
// upstream events, which map 1:1 onto client frames in every registered
// codec, so the resume is exact under SSE and NDJSON alike.
type StreamRelay struct {
	w         http.ResponseWriter
	tr        *StreamTranslator
	started   bool
	delivered int
	// Cut, when set, is consulted after each upstream event is read; an
	// error abandons the upstream there, as if it died between two
	// events, and Relay returns it wrapped in ErrStreamCut.
	Cut func() error
	// Done, when set, runs when the upstream's terminal event arrives,
	// before the terminal frame is written: a client that has read the
	// whole stream sees whatever Done recorded.
	Done func()
}

// StreamRelay starts a relay into w in the endpoint's client framing.
func (f *Front) StreamRelay(w http.ResponseWriter, ep Endpoint) *StreamRelay {
	return &StreamRelay{w: w, tr: f.Translator(ep)}
}

// Started reports whether the client response has begun.
func (s *StreamRelay) Started() bool { return s.started }

// Relay pipes one upstream canonical SSE response to the client,
// flushing per frame so streams stay real-time, and returns nil after
// the terminal event. An upstream that ends early or is cut returns an
// error wrapping ErrStreamCut, which another replica can resume; a
// translation failure or a departed client cannot be resumed.
func (s *StreamRelay) Relay(resp *http.Response) error {
	if !s.started {
		s.w.Header().Set("Content-Type", s.tr.ContentType())
		s.w.WriteHeader(resp.StatusCode)
		s.started = true
	}
	flusher, _ := s.w.(http.Flusher)
	br := bufio.NewReader(resp.Body)
	skip := s.delivered
	for {
		event, err := ir.ReadSSEEvent(br)
		if err == nil && s.Cut != nil {
			err = s.Cut()
		}
		if err != nil {
			// The event just read, or cut off mid-write, is discarded: a
			// replica re-sends it whole at the same position.
			return fmt.Errorf("%w after %d events: %w", ErrStreamCut, s.delivered, err)
		}
		done := isDone(event)
		if !done && skip > 0 {
			skip--
			continue
		}
		// The upstream is our own deterministic engine output, so a
		// translation failure would recur on any replica.
		frames, _, err := s.tr.Frames(event)
		if err != nil {
			return err
		}
		if done && s.Done != nil {
			s.Done()
		}
		if len(frames) > 0 {
			if _, err := s.w.Write(frames); err != nil {
				return fmt.Errorf("proxy: client gone: %w", err)
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if done {
			return nil
		}
		s.delivered++
	}
}
