package simclock

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// socketClient is a plain net/http client, as perfbench's, whose dials
// wait hold of wall time before connecting: a request held back on its
// way to the server.
func socketClient(t *testing.T, hold time.Duration) *http.Client {
	t.Helper()
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		time.Sleep(hold)
		return d.DialContext(ctx, network, addr)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// socketGet fetches url over the socket inside g.BlockIO and returns the
// body.
func socketGet(g *Gate, cli *http.Client, url string) (string, error) {
	var body []byte
	var err error
	g.BlockIO(func() {
		var resp *http.Response
		if resp, err = cli.Get(url); err != nil {
			return
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
	})
	return string(body), err
}

// sendTimer measures on the wall clock how long a request takes from
// its send to its handler. The clock holds time for an owed request
// only within ioGrace of the BlockIO entry, so a run in which one took
// longer, a host stall, shows nothing about the count. Requests are
// sent one at a time.
type sendTimer struct{ sent, late atomic.Int64 }

// send stamps a request leaving; call it before the BlockIO.
func (s *sendTimer) send() { s.sent.Store(time.Now().UnixNano()) }

// arrive checks the request in; call it first thing in the handler.
func (s *sendTimer) arrive() {
	if time.Now().UnixNano()-s.sent.Load() >= int64(ioGrace) {
		s.late.Add(1)
	}
}

// TestSocketArrivalPaysTheSend: once a BlockIO's request reached its
// handler, the handler's chain of ten clock waits takes no wall nap, and
// nothing stays owed.
func TestSocketArrivalPaysTheSend(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	var chainNaps atomic.Int64
	srv := listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		before := v.napCount()
		for i := 0; i < 10; i++ {
			v.Sleep(time.Millisecond)
		}
		chainNaps.Store(int64(v.napCount() - before))
		io.WriteString(w, "ok")
	})
	body, err := socketGet(g, socketClient(t, 0), "http://"+srv.Addr())
	if err != nil || body != "ok" {
		t.Fatalf("body %q, err %v", body, err)
	}
	if n := chainNaps.Load(); n != 0 {
		t.Fatalf("the handler's ten clock waits took %d settle naps, want 0", n)
	}
	if d := v.Since(vEpoch); d != 10*time.Millisecond {
		t.Fatalf("virtual time advanced %v, want 10ms", d)
	}
	if n := v.owedCount(); n != 0 {
		t.Fatalf("%d requests still owed after the round trip", n)
	}
}

// heldServer serves "ok" on v, noting each request's virtual arrival
// time in arrived and its wall latency in st.
func heldServer(t *testing.T, v *Virtual, arrived *atomic.Int64, st *sendTimer) *Server {
	return listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		st.arrive()
		arrived.Store(int64(v.Since(vEpoch)))
		io.WriteString(w, "ok")
	})
}

// heldRequestHoldsTime sends a request held back by a 2 ms wall-clock
// dial delay while a timer is due 1 ms of virtual time later, and fails
// unless the request reached its handler before the timer fired. An
// attempt whose request took ioGrace to arrive is retried.
func heldRequestHoldsTime(t *testing.T, v *Virtual, srv *Server, arrived *atomic.Int64, st *sendTimer) {
	t.Helper()
	g := v.Gate()
	cli := socketClient(t, 2*time.Millisecond)
	for try := 0; try < 5; try++ {
		wg := NewGroup(v)
		wg.Go(func() { v.Sleep(time.Millisecond) })
		start, late := v.Since(vEpoch), st.late.Load()
		st.send()
		if _, err := socketGet(g, cli, "http://"+srv.Addr()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		cli.CloseIdleConnections() // the next try dials, and waits, again
		if st.late.Load() > late {
			t.Logf("try %d: the request took ioGrace to arrive; not counted", try)
			continue
		}
		if at := time.Duration(arrived.Load()); at != start {
			t.Fatalf("the held request arrived at +%v, want +%v: time moved while it was owed", at, start)
		}
		return
	}
	t.Fatal("no request arrived within ioGrace in 5 tries")
}

// TestSocketHeldRequestHoldsTime: a request held back on its way to a
// server on the clock keeps time from jumping until it arrives, within
// ioGrace.
func TestSocketHeldRequestHoldsTime(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	var arrived atomic.Int64
	var st sendTimer
	heldRequestHoldsTime(t, v, heldServer(t, v, &arrived, &st), &arrived, &st)
}

// TestSocketRefusedDialOwesNothing: a BlockIO whose dial is refused sent
// nothing that can arrive, and leaves nothing owed.
func TestSocketRefusedDialOwesNothing(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := socketGet(g, socketClient(t, 0), "http://"+addr); err == nil {
		t.Fatal("a dial to a closed port succeeded")
	}
	if n := v.owedCount(); n != 0 {
		t.Fatalf("a refused BlockIO left %d requests owed, want 0", n)
	}
}

// TestSocketOutsideClientOwesNothing: socket requests from a client
// outside BlockIO pay nothing, so the count does not go below zero and
// a later BlockIO's request still holds time until it arrives.
func TestSocketOutsideClientOwesNothing(t *testing.T) {
	v := NewVirtual(vEpoch)
	var arrived atomic.Int64
	var st sendTimer
	srv := heldServer(t, v, &arrived, &st)
	cli := socketClient(t, 0)
	for i := 0; i < 3; i++ {
		resp, err := cli.Get("http://" + srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if n := v.owedCount(); n != 0 {
			t.Fatalf("request %d left %d owed, want 0", i, n)
		}
	}
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	heldRequestHoldsTime(t, v, srv, &arrived, &st)
}

// TestSocketStreamFlushesNap: the response direction is not counted, so
// the jumps between a streamed response's flushes still nap while the
// client reads.
func TestSocketStreamFlushesNap(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	const frames = 5
	var streamNaps atomic.Int64
	srv := listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		before := v.napCount()
		for i := 0; i < frames; i++ {
			fmt.Fprintf(w, "frame %d\n", i)
			w.(http.Flusher).Flush()
			v.Sleep(time.Millisecond)
		}
		streamNaps.Store(int64(v.napCount() - before))
	})
	body, err := socketGet(g, socketClient(t, 0), "http://"+srv.Addr())
	if err != nil || strings.Count(body, "frame") != frames {
		t.Fatalf("body %q, err %v", body, err)
	}
	if streamNaps.Load() == 0 {
		t.Fatal("no jump after a flush napped: the flushed bytes got no wall window")
	}
}

// socketReplay runs one socket scenario on a fresh clock and returns
// its log of virtual timestamps: three round trips from a BlockIO
// client, each to a handler whose three clock waits a timer of another
// goroutine interleaves, due before the request could have arrived had
// time moved while it was owed. late reports a request that took
// ioGrace to arrive.
func socketReplay(t *testing.T) (log string, late bool) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	var mu sync.Mutex
	var lines []string
	rec := func(what string) {
		at := v.Since(vEpoch)
		mu.Lock()
		lines = append(lines, fmt.Sprintf("%s@%v", what, at))
		mu.Unlock()
	}
	var st sendTimer
	srv := listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		st.arrive()
		rec("arrive" + r.URL.Path)
		for i := 0; i < 3; i++ {
			v.Sleep(300 * time.Microsecond)
		}
		rec("reply" + r.URL.Path)
		io.WriteString(w, "ok")
	})
	cli := socketClient(t, 0)
	for i := 0; i < 3; i++ {
		wg := NewGroup(v)
		wg.Go(func() {
			v.Sleep(500 * time.Microsecond)
			rec("tick")
		})
		st.send()
		if _, err := socketGet(g, cli, fmt.Sprintf("http://%s/%d", srv.Addr(), i)); err != nil {
			t.Fatal(err)
		}
		rec("client")
		wg.Wait()
	}
	return strings.Join(lines, " "), st.late.Load() > 0
}

// TestSocketReplayDeterministic: twenty runs of a socket scenario print
// identical virtual timestamps. A run in which a request took ioGrace
// to arrive is not counted; at most twenty are tolerated.
func TestSocketReplayDeterministic(t *testing.T) {
	const runs = 20
	var want string
	for done, tries := 0, 0; done < runs; tries++ {
		if tries == 2*runs {
			t.Fatalf("only %d of %d runs sent every request within ioGrace", done, tries)
		}
		got, late := socketReplay(t)
		switch {
		case late:
			t.Logf("try %d: a request took ioGrace to arrive; not counted", tries)
			continue
		case done == 0:
			want = got
			t.Log(want)
		case got != want:
			t.Fatalf("run %d diverged:\n got %s\nwant %s", done, got, want)
		}
		done++
	}
}
