package simclock

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"testing"
	"time"
)

// recycleServer serves "/stream", which flushes "aaaa" every 1 ms of
// virtual time until its write fails or its context ends, and every
// other path p by writing "b" + p. ended counts the streams that
// returned, cancelled those whose context was cancelled when they did.
type recycleServer struct {
	srv              *Server
	base             *url.URL
	ended, cancelled atomic.Int64
}

func newRecycleServer(t *testing.T, v *Virtual) *recycleServer {
	t.Helper()
	rs := &recycleServer{}
	rs.srv = listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stream" {
			io.WriteString(w, "b"+r.URL.Path)
			return
		}
		defer func() {
			if r.Context().Err() != nil {
				rs.cancelled.Add(1)
			}
			rs.ended.Add(1)
		}()
		for r.Context().Err() == nil {
			if _, err := io.WriteString(w, "aaaa"); err != nil {
				return
			}
			w.(http.Flusher).Flush()
			v.Sleep(time.Millisecond)
		}
	})
	rs.base = &url.URL{Scheme: "http", Host: rs.srv.Addr()}
	return rs
}

// get sends a GET for path on ctx.
func (rs *recycleServer) get(t *testing.T, ctx context.Context, path string) *http.Response {
	t.Helper()
	resp, err := Send(Transport(rs.srv.v), NewRequest(ctx, http.MethodGet, rs.base, path, nil, nil))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp
}

// expectOwn makes a round trip to /<i> and checks it reads exactly its
// own bytes.
func (rs *recycleServer) expectOwn(t *testing.T, i int) {
	t.Helper()
	path := fmt.Sprintf("/%d", i)
	resp := rs.get(t, context.Background(), path)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "b"+path {
		t.Fatalf("round trip %d read %q, err %v; want %q", i, body, err, "b"+path)
	}
}

// readFrame reads the first stream frame from resp.
func readFrame(t *testing.T, resp *http.Response) {
	t.Helper()
	frame := make([]byte, 4)
	if _, err := io.ReadFull(resp.Body, frame); err != nil || string(frame) != "aaaa" {
		t.Fatalf("first frame %q, err %v", frame, err)
	}
}

// pooled reports how many spent exchanges wait for reuse.
func pooled(v *Virtual) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.xfree)
}

// TestRecycledExchangeEarlyClose: a client closes a stream's body while
// its handler is still writing, then at once makes another round trip.
// That one reads exactly its own bytes, the stream's handler sees its
// writes fail, a body closed again or read after its exchange was
// reused changes nothing, and every exchange comes back for reuse.
func TestRecycledExchangeEarlyClose(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	rs := newRecycleServer(t, v)
	const rounds = 50
	var first *http.Response
	for i := 0; i < rounds; i++ {
		resp := rs.get(t, context.Background(), "/stream")
		readFrame(t, resp)
		resp.Body.Close()
		if first == nil {
			first = resp
		}
		rs.expectOwn(t, i)
	}
	v.Sleep(10 * time.Millisecond) // the last stream wakes to its failed write
	if n := rs.ended.Load(); n != rounds {
		t.Fatalf("%d of %d stream handlers returned", n, rounds)
	}
	// No time passed during the loop, so every stream's handler held its
	// exchange to the end, and each round trip after one took the one
	// before's: rounds+1 exchanges, all back for reuse.
	expectPooled(t, v, rounds+1)
	if n, err := first.Body.Read(make([]byte, 4)); n != 0 || !errors.Is(err, errReset) {
		t.Fatalf("read of a closed body after reuse: %d bytes, err %v; want 0, %v", n, err, errReset)
	}
	first.Body.Close()
	for i := 0; i < rounds; i++ {
		rs.expectOwn(t, rounds+i)
	}
	expectPooled(t, v, rounds+1)
}

// expectPooled checks that n spent exchanges wait for reuse.
func expectPooled(t *testing.T, v *Virtual, n int) {
	t.Helper()
	if got := pooled(v); got != n {
		t.Fatalf("%d exchanges pooled, want %d", got, n)
	}
}

// TestRecycledExchangeClientCancel: cancelling the client's context
// mid-stream breaks its read with the context's error and cancels the
// handler's request context; the next round trip, on a recycled
// exchange, reads exactly its own bytes.
func TestRecycledExchangeClientCancel(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	rs := newRecycleServer(t, v)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		resp := rs.get(t, ctx, "/stream")
		readFrame(t, resp)
		cancel()
		if _, err := io.ReadAll(resp.Body); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: read after cancel: %v, want context.Canceled", i, err)
		}
		resp.Body.Close()
		rs.expectOwn(t, i)
	}
	v.Sleep(10 * time.Millisecond)
	if n := rs.cancelled.Load(); n != rounds {
		t.Fatalf("%d of %d stream handlers saw their context cancelled", n, rounds)
	}
	expectPooled(t, v, rounds+1)
}

// TestRecycledExchangeServerClose: Server.Close breaks every in-process
// exchange in flight as a reset connection, cancels their handlers'
// contexts, and the spent exchanges serve a new server's round trips.
func TestRecycledExchangeServerClose(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	rs := newRecycleServer(t, v)
	const streams = 3
	var resps []*http.Response
	for i := 0; i < streams; i++ {
		resp := rs.get(t, context.Background(), "/stream")
		readFrame(t, resp)
		resps = append(resps, resp)
	}
	rs.srv.Close()
	for i, resp := range resps {
		if _, err := io.ReadAll(resp.Body); !errors.Is(err, errReset) {
			t.Fatalf("stream %d: read after Close: %v, want %v", i, err, errReset)
		}
		resp.Body.Close()
	}
	v.Sleep(10 * time.Millisecond)
	if n := rs.cancelled.Load(); n != streams {
		t.Fatalf("%d of %d stream handlers saw their context cancelled", n, streams)
	}
	expectPooled(t, v, streams)
	if _, err := Send(Transport(v), NewRequest(context.Background(), http.MethodGet, rs.base, "/0", nil, nil)); err == nil {
		t.Fatal("a round trip to a closed server succeeded")
	}
	next := newRecycleServer(t, v)
	for i := 0; i < streams; i++ {
		next.expectOwn(t, i)
	}
}

// TestRecycledExchangeHeaderAfterCommit: a handler's header changes
// after the response committed do not reach the client's header, and a
// recycled exchange starts its next use with an empty header.
func TestRecycledExchangeHeaderAfterCommit(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	srv := listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/plain" {
			io.WriteString(w, "plain")
			return
		}
		w.Header().Set("X-Phase", "before")
		io.WriteString(w, "x")
		w.(http.Flusher).Flush()
		w.Header().Set("X-Phase", "after")
		w.Header().Set("X-Late", "1")
		if got := w.Header().Get("X-Phase"); got != "after" {
			t.Errorf("handler's own header reads X-Phase %q after setting it", got)
		}
		io.WriteString(w, "y")
	})
	base := &url.URL{Scheme: "http", Host: srv.Addr()}
	rt := Transport(v)
	for i := 0; i < 3; i++ {
		resp, err := Send(rt, NewRequest(context.Background(), http.MethodGet, base, "/", nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "xy" {
			t.Fatalf("body %q, err %v", body, err)
		}
		if got := resp.Header.Get("X-Phase"); got != "before" {
			t.Fatalf("client's X-Phase %q, want the committed %q", got, "before")
		}
		if got := resp.Header.Get("X-Late"); got != "" {
			t.Fatalf("a header set after commit reached the client: X-Late %q", got)
		}
		resp, err = Send(rt, NewRequest(context.Background(), http.MethodGet, base, "/plain", nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Phase"); got != "" {
			t.Fatalf("a recycled exchange carried X-Phase %q into its next use", got)
		}
		if got := resp.Header.Get("Content-Type"); got != "text/plain; charset=utf-8" {
			t.Fatalf("sniffed Content-Type %q", got)
		}
	}
}

// TestRecycledExchangeConcurrentClients: registered clients hammering
// one server at once each read exactly their own bytes.
func TestRecycledExchangeConcurrentClients(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	rs := newRecycleServer(t, v)
	gr := NewGroup(v)
	for c := 0; c < 4; c++ {
		gr.Go(func() {
			for i := 0; i < 25; i++ {
				rs.expectOwn(t, 100*c+i)
			}
		})
	}
	gr.Wait()
}
