package proxy

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"swapservellm/internal/chaos"
	"swapservellm/internal/metrics"
	"swapservellm/internal/proxy/ir"
)

// testDoor is a Door whose Serve records the canonical body it was
// handed and answers 200.
func testDoor(token string, served *[]string) Door {
	return Door{
		Token: token,
		Serve: func(w http.ResponseWriter, r *http.Request, ep Endpoint, model string, stream bool, canonical []byte) {
			*served = append(*served, string(canonical))
			w.WriteHeader(http.StatusOK)
		},
		Models:   func() []ListedModel { return nil },
		Registry: metrics.NewRegistry(),
	}
}

// chatBodyOfSize renders a well-formed chat request exactly n bytes long.
func chatBodyOfSize(n int) string {
	const head, tail = `{"model":"m","messages":[{"role":"user","content":"`, `"}]}`
	return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
}

func post(h http.Handler, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func errorType(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var env ir.ErrorEnvelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatalf("status %d body is not an error envelope: %v", rec.Code, err)
	}
	return env.Error.Type
}

func TestEdgeBodyLimit(t *testing.T) {
	var served []string
	mux := New().Mux(testDoor("", &served))

	if rec := post(mux, "/v1/chat/completions", chatBodyOfSize(maxBodyBytes), nil); rec.Code != http.StatusOK {
		t.Fatalf("body of exactly %d bytes: status %d", maxBodyBytes, rec.Code)
	}
	rec := post(mux, "/api/chat", chatBodyOfSize(maxBodyBytes+1), nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	if typ := errorType(t, rec); typ != "invalid_request_error" {
		t.Fatalf("oversized body: error type %q", typ)
	}
	if len(served) != 1 {
		t.Fatalf("served %d requests, want only the in-bound one", len(served))
	}
}

func TestEdgePreludeErrors(t *testing.T) {
	var served []string
	var failures int
	f := New(WithChaos(chaos.NewInjector(chaos.MustParsePlan("seed=1; proxy.translate: times=1"))))
	door := testDoor("", &served)
	door.TranslateFailed = func() { failures++ }
	mux := f.Mux(door)
	body := `{"model":"m","messages":[{"role":"user","content":"hi"}]}`

	rec := post(mux, "/v1/chat/completions", body, nil)
	if rec.Code != http.StatusServiceUnavailable || errorType(t, rec) != "translate_failed" || failures != 1 {
		t.Fatalf("injected translate fault: status %d, failures %d", rec.Code, failures)
	}
	rec = post(mux, "/v1/chat/completions", `{"model":"m","messages":[]}`, nil)
	if rec.Code != http.StatusBadRequest || failures != 1 {
		t.Fatalf("malformed request: status %d, failures %d", rec.Code, failures)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/chat", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on a POST row: status %d", rec.Code)
	}
	if rec := post(mux, "/api/chat", body, nil); rec.Code != http.StatusOK {
		t.Fatalf("clean request: status %d", rec.Code)
	}
	// Every protocol forwards the same canonical encoding.
	if len(served) != 1 || !strings.Contains(served[0], `"messages"`) {
		t.Fatalf("served = %q", served)
	}
}

func TestEdgeTokenGuardsEveryRoute(t *testing.T) {
	var served []string
	mux := New().Mux(testDoor("secret", &served))
	for _, path := range []string{"/v1/chat/completions", "/api/generate", "/v1/models", "/api/tags",
		"/metrics", "/metrics.csv", "/debug/trace"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s without token: status %d, want 401", path, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/debug/trace", nil)
	req.Header.Set("Authorization", "Bearer secret")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace with token: status %d", rec.Code)
	}
}

// upstream builds a canonical SSE response carrying n content events
// and the [DONE] sentinel.
func upstream(n int) *http.Response {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(`data: {"object":"chat.completion.chunk","choices":[{"index":0,"delta":{"content":"t` +
			string(rune('0'+i)) + `"},"finish_reason":null}]}` + "\n\n")
	}
	b.WriteString("data: [DONE]\n\n")
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(b.String()))}
}

func TestStreamRelayResumesAfterCut(t *testing.T) {
	for _, path := range []string{"/v1/chat/completions", "/api/chat"} {
		f := New()
		ep, _ := f.Endpoint(path)
		rec := httptest.NewRecorder()
		relay := f.StreamRelay(rec, ep)
		reads := 0
		relay.Cut = func() error {
			if reads++; reads == 3 {
				return errors.New("cut")
			}
			return nil
		}
		if err := relay.Relay(upstream(4)); !errors.Is(err, ErrStreamCut) {
			t.Fatalf("%s: first upstream: %v, want ErrStreamCut", path, err)
		}
		if !relay.Started() {
			t.Fatalf("%s: relay not started after two delivered events", path)
		}
		if err := relay.Relay(upstream(4)); err != nil {
			t.Fatalf("%s: replica upstream: %v", path, err)
		}
		out := rec.Body.String()
		for i := 0; i < 4; i++ {
			if got := strings.Count(out, `"t`+string(rune('0'+i))+`"`); got != 1 {
				t.Fatalf("%s: token %d delivered %d times in %q", path, i, got, out)
			}
		}
	}
}
