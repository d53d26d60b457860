package simclock

import (
	"context"
	"net/http"
	"strconv"
	"time"
)

// ticketHeader carries a hand-off ticket from a registered HTTP client
// to the server it calls.
const ticketHeader = "X-Simclock-Ticket"

// ticketGrace bounds, in wall time, how long one ticket on the wire can
// hold a Virtual clock: a server that never claims its ticket costs
// each exchange this much instead of freezing time.
const ticketGrace = 500 * time.Millisecond

// ticket is one HTTP exchange between a registered client and a
// server. While its request or its buffered response is on the wire —
// in flight through netpoll, where neither side holds a run token —
// the clock does not advance, so the exchange lands at the virtual
// instant it was sent whatever the wall latency of the hop.
type ticket struct {
	wire  bool
	since time.Time // wall time the ticket was last put on the wire
}

type ticketKey struct{}

// ticketOf returns the hand-off ticket ctx carries, or "".
func ticketOf(ctx context.Context) string {
	id, _ := ctx.Value(ticketKey{}).(string)
	return id
}

// Stamp copies the ticket req's context carries, if any, into req's
// ticket header.
func Stamp(req *http.Request) {
	if tid := ticketOf(req.Context()); tid != "" {
		req.Header.Set(ticketHeader, tid)
	}
}

// Send is BlockIO for one HTTP exchange: fn's request must be built on
// the ctx it is passed and stamped (Stamp). Under a Virtual clock a
// registered caller's request stays on the wire — holding the clock —
// until the server claims it on arrival, and the server puts the
// response back on the wire when it is done, which holds the clock
// again until the caller resumes. Other callers get BlockIO.
func (g *Gate) Send(ctx context.Context, fn func(ctx context.Context)) {
	v := g.v
	if v == nil {
		fn(ctx)
		return
	}
	id := gid()
	v.mu.Lock()
	if _, ok := v.reg[id]; !ok {
		v.mu.Unlock()
		g.BlockIO(func() { fn(ctx) })
		return
	}
	v.ticketSeq++
	tid := v.ticketSeq
	v.tickets[tid] = &ticket{wire: true, since: time.Now()}
	v.onWire++
	v.mu.Unlock()
	tctx := context.WithValue(ctx, ticketKey{}, strconv.FormatUint(tid, 10))

	g.BlockIO(func() { fn(tctx) })

	v.mu.Lock()
	if t := v.tickets[tid]; t != nil && t.wire {
		v.offWireLocked()
	}
	delete(v.tickets, tid)
	v.mu.Unlock()
}

// Dispatch puts the response of the exchange ctx serves (a request
// context the Serve wrapper passed on) on the wire. Call it when a fully
// buffered answer leaves for the client — never for a stream still
// being generated, which needs the clock to advance.
func (g *Gate) Dispatch(ctx context.Context) { g.setWire(ticketOf(ctx), true) }

func (g *Gate) setWire(tid string, wire bool) {
	v := g.v
	if v == nil || tid == "" {
		return
	}
	n, err := strconv.ParseUint(tid, 10, 64)
	if err != nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	t := v.tickets[n]
	if t == nil || t.wire == wire {
		return
	}
	t.wire = wire
	if wire {
		t.since = time.Now()
		v.onWire++
		v.gen++
	} else {
		v.offWireLocked()
		v.maybeAdvanceLocked()
	}
}

// offWireLocked counts one ticket off the wire, waking a settle that
// waits for the wire to clear.
func (v *Virtual) offWireLocked() {
	v.onWire--
	v.gen++
	if v.onWire == 0 && v.wireFree != nil {
		close(v.wireFree)
		v.wireFree = nil
	}
}

// wireHeldLocked reports how long tickets on the wire may still hold
// the clock: until the wire clears or every ticket on it has outlived
// ticketGrace. Zero means they do not.
func (v *Virtual) wireHeldLocked() time.Duration {
	if v.onWire == 0 {
		return 0
	}
	now := time.Now()
	var hold time.Duration
	for _, t := range v.tickets {
		if left := ticketGrace - now.Sub(t.since); t.wire && left > hold {
			hold = left
		}
	}
	return hold
}

// Serve wraps a server's handler in the ticket protocol: an arriving
// request's ticket is claimed at once and travels on in the request's
// context, and it is dispatched when the handler returns, since the
// rest of the response then needs no clock. Without a Virtual clock it
// returns h.
func Serve(clock Clock, h http.Handler) http.Handler {
	g := GateFor(clock)
	if g.v == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid := r.Header.Get(ticketHeader)
		if tid == "" {
			h.ServeHTTP(w, r)
			return
		}
		g.setWire(tid, false)
		defer g.setWire(tid, true)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ticketKey{}, tid)))
	})
}
