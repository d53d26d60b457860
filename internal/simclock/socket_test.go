package simclock

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
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
// body. After reading it the client stays in BlockIO for hold of wall
// time: a reply held back on its way to the client.
func socketGet(g *Gate, cli *http.Client, url string, hold time.Duration) (string, error) {
	var body []byte
	var err error
	g.BlockIO(func() {
		defer spin(hold)
		var resp *http.Response
		if resp, err = cli.Get(url); err != nil {
			return
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
	})
	return string(body), err
}

// spin keeps the caller busy for d of wall time. A sleep's end would
// come with a timer tick, often the one that ends a settle's nap, so
// the nap could not end on the payment that follows.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}

// sendTimer measures on the wall clock how long a message takes from
// its send to its receiver: a request from before the BlockIO to its
// handler, a reply from the handler's end to the BlockIO's return. The
// clock holds time for an owed message only within ioGrace of its
// send, so a run in which one took longer, a host stall, shows nothing
// about the count. Messages are sent one at a time.
type sendTimer struct{ sent, late atomic.Int64 }

// send stamps a message leaving: call it before the BlockIO, or last
// thing in the handler.
func (s *sendTimer) send() { s.sent.Store(time.Now().UnixNano()) }

// arrive checks the message in: call it first thing in the handler, or
// right after the BlockIO.
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
	body, err := socketGet(g, socketClient(t, 0), "http://"+srv.Addr(), 0)
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
// time in arrived and timing both messages with st.
func heldServer(t *testing.T, v *Virtual, arrived *atomic.Int64, st *sendTimer) *Server {
	return listen(t, v, func(w http.ResponseWriter, r *http.Request) {
		st.arrive()
		arrived.Store(int64(v.Since(vEpoch)))
		io.WriteString(w, "ok")
		st.send()
	})
}

// heldTrip is one round trip to a heldServer whose handler returns at
// the instant its request arrives, while another goroutine's timer is
// due 1 ms of virtual time later. The request is held back by a 2 ms
// wall-clock dial delay, and the client stays in BlockIO replyHold of
// wall time after reading the reply.
type heldTrip struct {
	t         *testing.T
	v         *Virtual
	srv       *Server
	arrived   *atomic.Int64
	st        *sendTimer
	replyHold time.Duration
}

// holdsTime runs the trip until an attempt sends both messages within
// ioGrace and its settle naps end on a payment at least wantPaid times,
// for at most five attempts. It fails unless each such attempt's
// request reached its handler, and its client left BlockIO, before the
// timer fired: time held still while either message was owed.
func (h heldTrip) holdsTime(wantPaid int) {
	h.t.Helper()
	v := h.v
	g := v.Gate()
	cli := socketClient(h.t, 2*time.Millisecond)
	for try := 0; try < 5; try++ {
		wg := NewGroup(v)
		wg.Go(func() { v.Sleep(time.Millisecond) })
		start, late, paid := v.Since(vEpoch), h.st.late.Load(), v.paidNapCount()
		h.st.send()
		if _, err := socketGet(g, cli, "http://"+h.srv.Addr(), h.replyHold); err != nil {
			h.t.Fatal(err)
		}
		h.st.arrive()
		left := v.Since(vEpoch)
		wg.Wait() // a nap's payment is counted once it retakes the lock
		paid = v.paidNapCount() - paid
		cli.CloseIdleConnections() // the next try dials, and waits, again
		if h.st.late.Load() > late {
			h.t.Logf("try %d: a message took ioGrace to arrive; not counted", try)
			continue
		}
		if at := time.Duration(h.arrived.Load()); at != start {
			h.t.Fatalf("the held request arrived at +%v, want +%v: time moved while it was owed", at, start)
		}
		if left != start {
			h.t.Fatalf("the client left BlockIO at +%v, want the handler's return at +%v: time moved while the reply was owed", left, start)
		}
		if paid < wantPaid {
			// A payment between a nap's tick and its settle retaking
			// the lock ends the settle without ending a nap.
			h.t.Logf("try %d: %d settle naps ended on a payment, want %d; a timer tick came first", try, paid, wantPaid)
			continue
		}
		return
	}
	h.t.Fatal("no round trip held time as asked in 5 tries")
}

// newHeldTrip starts a heldServer on v and returns its trip.
func newHeldTrip(t *testing.T, v *Virtual, replyHold time.Duration) heldTrip {
	h := heldTrip{t: t, v: v, arrived: new(atomic.Int64), st: new(sendTimer), replyHold: replyHold}
	h.srv = heldServer(t, v, h.arrived, h.st)
	return h
}

// TestSocketHeldRequestHoldsTime: a request held back on its way to a
// server on the clock keeps time from jumping until it arrives, within
// ioGrace.
func TestSocketHeldRequestHoldsTime(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	newHeldTrip(t, v, 0).holdsTime(0)
}

// TestSocketReplyHoldsTime: a reply held back on its way to a client in
// BlockIO keeps time from jumping past its handler's return until the
// client has read it, within ioGrace.
func TestSocketReplyHoldsTime(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	newHeldTrip(t, v, 2*time.Millisecond).holdsTime(0)
}

// TestSocketPaymentEndsNap: the settle's wait on each of a held round
// trip's two counted messages ends when the message is paid, by the
// clock's signal, not on its nap timer.
func TestSocketPaymentEndsNap(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	newHeldTrip(t, v, 2*time.Millisecond).holdsTime(2)
}

// TestSocketRefusedDialOwesNothing: a BlockIO whose dial is refused sent
// nothing that can arrive, and leaves nothing owed; nor does a held
// round trip after it, request or reply.
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
	if _, err := socketGet(g, socketClient(t, 0), "http://"+addr, 0); err == nil {
		t.Fatal("a dial to a closed port succeeded")
	}
	if n := v.owedCount(); n != 0 {
		t.Fatalf("a refused BlockIO left %d messages owed, want 0", n)
	}
	newHeldTrip(t, v, 2*time.Millisecond).holdsTime(0)
	if n := v.owedCount(); n != 0 {
		t.Fatalf("a held round trip left %d messages owed, want 0", n)
	}
}

// TestSocketOutsideClientOwesNothing: socket requests from a client
// outside BlockIO, and their replies, pay and owe nothing, so the count
// does not go below zero or above it, and a later BlockIO's request and
// reply still hold time until each arrives.
func TestSocketOutsideClientOwesNothing(t *testing.T) {
	v := NewVirtual(vEpoch)
	h := newHeldTrip(t, v, 2*time.Millisecond)
	cli := socketClient(t, 0)
	for i := 0; i < 3; i++ {
		resp, err := cli.Get("http://" + h.srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if n := v.owedCount(); n != 0 {
			t.Fatalf("request %d and its reply left %d owed, want 0", i, n)
		}
	}
	g := v.Gate()
	g.Enter()
	defer g.Exit()
	h.holdsTime(0)
	if n := v.owedCount(); n != 0 {
		t.Fatalf("a held round trip left %d messages owed, want 0", n)
	}
}

// TestSocketStreamFlushesNap: a flush is the one socket message the
// clock does not count, so the jumps between a streamed response's
// flushes still nap while the client reads.
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
	body, err := socketGet(g, socketClient(t, 0), "http://"+srv.Addr(), 0)
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
// time moved while it was owed, and a second timer due just after the
// handler's reply. late reports a message that took ioGrace to arrive.
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
		st.send()
	})
	// Each run releases its sockets: left open until the test ended,
	// they made the twentieth run's first accept take over ioGrace.
	defer srv.Close()
	cli := socketClient(t, 0)
	defer cli.CloseIdleConnections()
	for i := 0; i < 3; i++ {
		wg := NewGroup(v)
		wg.Go(func() {
			v.Sleep(500 * time.Microsecond)
			rec("tick")
		})
		wg.Go(func() {
			v.Sleep(950 * time.Microsecond)
			rec("tock")
		})
		st.send()
		if _, err := socketGet(g, cli, fmt.Sprintf("http://%s/%d", srv.Addr(), i), 0); err != nil {
			t.Fatal(err)
		}
		st.arrive()
		rec("client")
		wg.Wait()
	}
	return strings.Join(lines, " "), st.late.Load() > 0
}

// TestSocketReplayDeterministic: twenty runs of a socket scenario print
// identical virtual timestamps. A run in which a message took ioGrace
// to arrive is not counted; at most twenty are tolerated.
func TestSocketReplayDeterministic(t *testing.T) {
	const runs = 20
	var want string
	for done, tries := 0, 0; done < runs; tries++ {
		if tries == 2*runs {
			t.Fatalf("only %d of %d runs sent every message within ioGrace", done, tries)
		}
		got, late := socketReplay(t)
		switch {
		case late:
			t.Logf("try %d: a message took ioGrace to arrive; not counted", tries)
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
