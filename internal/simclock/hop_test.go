package simclock

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"
)

// hopPayload, hopAnswer and hopFrame are a chat request, its buffered
// answer and one SSE frame of its stream, at about their real sizes.
var (
	hopPayload = []byte(`{"model":"m","messages":[{"role":"user","content":"hi"}]}`)
	hopAnswer  = []byte(`{"id":"chatcmpl-1","object":"chat.completion","choices":[]}`)
	hopFrame   = []byte("data: {\"id\":\"chatcmpl-1\",\"choices\":[]}\n\n")
)

// hopServers starts two servers on v that answer like an engine: one
// writes a buffered JSON answer, the other streams flushes SSE frames.
// They return their parsed base URLs.
func hopServers(t testing.TB, v *Virtual, flushes int) (buffered, stream *url.URL) {
	serve := func(h http.HandlerFunc) *url.URL {
		srv, err := Listen(v, "127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return &url.URL{Scheme: "http", Host: srv.Addr()}
	}
	buffered = serve(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(hopAnswer)
	})
	stream = serve(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "text/event-stream")
		for i := 0; i < flushes; i++ {
			w.Write(hopFrame)
			w.(http.Flusher).Flush()
		}
	})
	return buffered, stream
}

// hop makes one in-process exchange the way the worker's relay and the
// gateway's forward do: build the request on a parsed base URL, send it
// on the clock's transport, read the body to its end and close it. It
// returns the body's length.
func hop(t testing.TB, rt http.RoundTripper, base *url.URL) int64 {
	req := NewRequest(context.Background(), http.MethodPost, base, "/v1/chat/completions", hopPayload, JSONHeader)
	resp, err := Send(rt, req)
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestInProcessHopAllocs pins what one in-process hop allocates, client
// and handler together. The parent of the recycled exchange, driving
// the same handlers through http.Client and http.NewRequestWithContext,
// measured 51 for a buffered hop and 55 for a 10-flush stream hop.
func TestInProcessHopAllocs(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	buffered, stream := hopServers(t, v, 10)
	rt := Transport(v)
	for _, c := range []struct {
		name   string
		base   *url.URL
		size   int
		budget float64
	}{
		{"buffered", buffered, len(hopAnswer), 20},
		{"stream", stream, 10 * len(hopFrame), 22},
	} {
		if n := hop(t, rt, c.base); n != int64(c.size) {
			t.Fatalf("%s hop read %d bytes, want %d", c.name, n, c.size)
		}
		got := testing.AllocsPerRun(200, func() { hop(t, rt, c.base) })
		t.Logf("%s hop: %v allocations", c.name, got)
		if got > c.budget {
			t.Errorf("%s hop allocates %v times, budget %v", c.name, got, c.budget)
		}
	}
}

// BenchmarkInProcessHop is one in-process hop, buffered and as a
// 10-flush stream.
func BenchmarkInProcessHop(b *testing.B) {
	v := NewVirtual(vEpoch)
	buffered, stream := hopServers(b, v, 10)
	rt := Transport(v)
	for _, c := range []struct {
		name string
		base *url.URL
	}{{"buffered", buffered}, {"stream", stream}} {
		b.Run(c.name, func(b *testing.B) {
			// Registered on the goroutine that runs the loop: a
			// registered parent parked in b.Run would keep its run
			// token, and no handler could start.
			g := v.Gate()
			g.Enter()
			defer g.Exit()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hop(b, rt, c.base)
			}
		})
	}
}

// TestHealthProbeAllocs pins what one /health probe allocates through
// Transport, client and handler together: a GET answered the way the
// node router and the engines answer it, a status and a line of text,
// the header never touched. The client still reads the sniffed
// Content-Type. Building a header map for each answer and setting the
// sniffed type in it made it 7.
func TestHealthProbeAllocs(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	srv, err := Listen(v, "127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	req := NewRequest(context.Background(), http.MethodGet, &url.URL{Scheme: "http", Host: srv.Addr()}, "/health", nil, nil)
	rt := Transport(v)
	probe := func() {
		resp, err := Send(rt, req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
			t.Fatalf("Content-Type %q", ct)
		}
		if n, _ := io.Copy(io.Discard, resp.Body); n != 3 || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, %d bytes", resp.StatusCode, n)
		}
		resp.Body.Close()
	}
	probe()
	got := testing.AllocsPerRun(200, probe)
	t.Logf("health probe: %v allocations", got)
	if got > 4 {
		t.Errorf("a health probe allocates %v times, budget 4", got)
	}
}
