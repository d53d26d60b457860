package engine

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"swapservellm/internal/proxy/ir"
)

var updateWire = flag.Bool("update", false, "rewrite the engine wire golden files")

// wireCase is one engine request whose exact response bytes are pinned.
type wireCase struct {
	name, path, body string
	family           ir.Family
	stream           bool
}

const wireModel = "llama3.2:1b-fp16"

var wireCases = []wireCase{
	{name: "chat", path: "/v1/chat/completions", family: ir.FamilyChat,
		body: `{"model":"` + wireModel + `","messages":[{"role":"user","content":"pin the wire"}],"max_tokens":6,"seed":7}`},
	{name: "completion", path: "/v1/completions", family: ir.FamilyCompletion,
		body: `{"model":"` + wireModel + `","prompt":["first prompt","second"],"max_tokens":5,"seed":3}`},
	{name: "embeddings", path: "/v1/embeddings", family: ir.FamilyEmbeddings,
		body: `{"model":"` + wireModel + `","input":["alpha","beta"]}`},
	{name: "rerank", path: "/v1/rerank", family: ir.FamilyRerank,
		body: `{"model":"` + wireModel + `","query":"which","documents":["one","two","three"],"top_n":2}`},
	{name: "chat-stream", path: "/v1/chat/completions", family: ir.FamilyChat, stream: true,
		body: `{"model":"` + wireModel + `","messages":[{"role":"user","content":"pin the frames"}],"max_tokens":4,"seed":9,"stream":true}`},
}

// wireResponses serves every wire case, in order, from one engine on a
// Virtual clock, so IDs and timestamps are exact.
func wireResponses(t *testing.T) []*httptest.ResponseRecorder {
	t.Helper()
	r := newRig(t)
	e, err := NewOllama(r.config(t, "wire", wireModel))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()
	var out []*httptest.ResponseRecorder
	for _, c := range wireCases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body)
		}
		out = append(out, rec)
	}
	return out
}

// renderWire renders a response as its sorted header lines, a blank
// line and the body bytes verbatim.
func renderWire(rec *httptest.ResponseRecorder) []byte {
	var b bytes.Buffer
	keys := make([]string, 0, len(rec.Header()))
	for k := range rec.Header() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\n", k, strings.Join(rec.Header()[k], ", "))
	}
	b.WriteString("\n")
	b.Write(rec.Body.Bytes())
	return b.Bytes()
}

// TestEngineWireGolden pins the engine's exact wire output — headers,
// JSON bodies with the encoder's trailing newline, and SSE frames — to
// the golden files under testdata/wire. Run with -update to rewrite
// them after an intended change.
func TestEngineWireGolden(t *testing.T) {
	for i, rec := range wireResponses(t) {
		c := wireCases[i]
		path := filepath.Join("testdata", "wire", c.name+".golden")
		got := renderWire(rec)
		if *updateWire {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire bytes differ from %s\ngot:\n%s\nwant:\n%s", c.name, path, got, want)
		}
	}
}

// TestEngineWireRoundTrip: every engine response decodes through the
// IR's OpenAI codec — buffered bodies with DecodeResponse, stream
// frames with SSEReader and DecodeStreamEvent — so the front door
// can translate whatever an engine says.
func TestEngineWireRoundTrip(t *testing.T) {
	codec := ir.OpenAICodec{}
	for i, rec := range wireResponses(t) {
		c := wireCases[i]
		if !c.stream {
			resp, err := codec.DecodeResponse(c.family, rec.Body.Bytes())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if resp.Chat == nil && resp.Completion == nil && resp.Embeddings == nil && resp.Rerank == nil {
				t.Fatalf("%s: decoded no payload", c.name)
			}
			continue
		}
		events := ir.NewSSEReader(bytes.NewReader(rec.Body.Bytes()))
		var chunks int
		done := false
		for !done {
			frame, err := events.Next()
			if errors.Is(err, io.EOF) {
				t.Fatalf("%s: stream ended after %d chunks without [DONE]", c.name, chunks)
			}
			if err != nil {
				t.Fatal(err)
			}
			ev, err := codec.DecodeStreamEvent(c.family, frame)
			if err != nil {
				t.Fatalf("%s: frame %q: %v", c.name, frame, err)
			}
			if ev.Chunk != nil {
				chunks++
			}
			done = ev.Done
		}
		// Role preamble, one chunk per token, finish chunk.
		if want := 1 + 4 + 1; chunks != want {
			t.Fatalf("%s: %d chunks before [DONE], want %d", c.name, chunks, want)
		}
		if rest, err := events.Next(); len(rest) != 0 || !errors.Is(err, io.EOF) || !bytes.HasSuffix(rec.Body.Bytes(), []byte("\n\n")) {
			t.Fatalf("%s: bytes after [DONE]: %q", c.name, rest)
		}
	}
}
