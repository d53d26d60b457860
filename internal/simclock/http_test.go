package simclock

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// listen starts a Server on v serving h, closed when the test ends.
func listen(t *testing.T, v *Virtual, h http.HandlerFunc) *Server {
	t.Helper()
	srv, err := Listen(v, "127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// burnCPU keeps one unregistered goroutine spinning until the test
// ends, so the Go scheduler is busy while the clock decides to jump.
func burnCPU(t *testing.T) {
	var stop atomic.Bool
	go func() {
		for !stop.Load() {
		}
	}()
	t.Cleanup(func() { stop.Store(true) })
}

// TestInProcessRoundTripLandsExactly: a registered client calls a
// handler that sleeps 1 s of virtual time. The client resumes at
// exactly +1 s, before a timer due 1 ms later, however busy the CPU is:
// no hop of the exchange leaves the clock free to move.
func TestInProcessRoundTripLandsExactly(t *testing.T) {
	burnCPU(t)
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	srv := listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		v.Sleep(time.Second)
		io.WriteString(w, "ok")
	})
	var fired atomic.Bool
	g.Go(func() {
		v.Sleep(time.Second + time.Millisecond)
		fired.Store(true)
	})

	cli := &http.Client{Transport: Transport(v)}
	for i := 1; i <= 20; i++ {
		start := v.Now()
		resp, err := cli.Get("http://" + srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "ok" {
			t.Fatalf("body %q, err %v", body, err)
		}
		if d := v.Since(start); d != time.Second {
			t.Fatalf("round trip %d took %v of virtual time, want 1s", i, d)
		}
		if i == 1 && fired.Load() {
			t.Fatal("the timer due at +1.001s fired before the client resumed")
		}
	}
}

// TestInProcessStreamFramesAtExactInstants: a handler flushes one SSE
// frame every 100 ms of virtual time; the client reads each at the
// instant it was flushed.
func TestInProcessStreamFramesAtExactInstants(t *testing.T) {
	burnCPU(t)
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	srv := listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for i := 0; i < 3; i++ {
			v.Sleep(100 * time.Millisecond)
			io.WriteString(w, "data: x\n\n")
			w.(http.Flusher).Flush()
		}
	})
	cli := &http.Client{Transport: Transport(v)}
	resp, err := cli.Get("http://" + srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	for i := 1; i <= 3; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		if d, want := v.Since(vEpoch), time.Duration(i)*100*time.Millisecond; d != want {
			t.Fatalf("frame %d read at +%v, want +%v", i, d, want)
		}
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// TestInProcessCancelReachesHandler: cancelling the client's context
// cancels the handler's request context and breaks the client's read.
func TestInProcessCancelReachesHandler(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	handlerErr := make(chan error, 1)
	srv := listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
		g.BlockOn(r, func() bool { return r.Context().Err() != nil }, func() { <-r.Context().Done() })
		handlerErr <- r.Context().Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+srv.Addr(), nil)
	resp, err := (&http.Client{Transport: Transport(v)}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	cancel()
	if _, err := io.ReadAll(resp.Body); !errors.Is(err, context.Canceled) {
		t.Fatalf("client read after cancel: %v, want context.Canceled", err)
	}
	var herr error
	g.Block(func() { herr = <-handlerErr })
	if !errors.Is(herr, context.Canceled) {
		t.Fatalf("handler context: %v, want context.Canceled", herr)
	}
}

// TestSocketRequestRunsRegistered: a request over the real listener of
// the same server still succeeds, and its handler runs registered.
func TestSocketRequestRunsRegistered(t *testing.T) {
	v := NewVirtual(vEpoch)
	var running atomic.Int64
	srv := listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		v.mu.Lock()
		running.Store(int64(v.running))
		v.mu.Unlock()
		v.Sleep(time.Second)
		io.WriteString(w, "ok")
	})
	resp, err := http.Get("http://" + srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "ok" {
		t.Fatalf("body %q, err %v", body, err)
	}
	if n := running.Load(); n != 1 {
		t.Fatalf("handler ran with %d run tokens out, want its own 1", n)
	}
	if d := v.Since(vEpoch); d != time.Second {
		t.Fatalf("virtual time advanced %v, want 1s", d)
	}
}
