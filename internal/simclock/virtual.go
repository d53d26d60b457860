package simclock

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ioGrace is the wall window after bytes leave on a real socket (a
// BlockIO entry or exit, a socket request's flush or return) during
// which a jump's settle pass first sleeps, so netpoll can hand them
// over. In-process HTTP never needs it (see Listen).
const ioGrace = 10 * time.Millisecond

// settleNap is the wall sleep of a settle round within ioGrace (see
// settleLocked).
const settleNap = 200 * time.Microsecond

// Virtual is a concurrency-aware discrete-event clock: Sleep and After
// park their callers on a deadline heap, and time jumps straight to the
// next deadline once the system is quiescent — no wall-clock waiting.
// It is the experiment harness's clock (à la Revati's time-warp
// emulation): simulated timestamps are a pure function of the event
// deadlines, so repeated runs produce byte-identical artifacts.
//
// Quiescence is tracked by a token protocol (see Gate): a *registered*
// goroutine owns a run token while it executes and gives it up while it
// parks on the clock or blocks on a peer. When no token is out, an
// advancer first probes the waits it can see into — a BlockOn whose
// ready check holds, a Wait whose done channel is closed — and hands
// those goroutines their tokens back; only when none is ready does it
// start the next spawned goroutine or fire the earliest deadline. A
// wait it cannot probe (a plain Block or a BlockIO) costs a settle pass
// first, and only after an event that could have ended it (see
// advanceLoop). HTTP servers on the clock serve in-process callers on
// registered goroutines (see Listen); an unregistered goroutine may
// still Sleep, but its waiter carries no token and no ordering promise.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	seq     uint64
	waiters vheap

	// reg maps a registered goroutine's identity (gid) to its Enter
	// nesting depth.
	reg map[uintptr]int

	// free holds Gate.Wait's spent waiters, channels drained, for reuse.
	free []*vwaiter

	// running counts registered goroutines holding their run token. Time
	// may only advance when it is zero.
	running int
	// waking counts goroutines whose wait ended but which have not yet
	// retaken mu to say so; the advancer yields to them.
	waking atomic.Int32
	// opaque counts registered goroutines inside Gate.Block or BlockIO,
	// the waits the clock cannot probe; blockedIO counts those in
	// BlockIO.
	opaque    int
	blockedIO int
	// debt records an event that may have ended an opaque wait without
	// the clock seeing it: an outermost Exit, a Block or BlockIO entry,
	// or socket activity. The next advance settles before it moves on.
	debt bool

	// parked holds the goroutines blocked in Gate.BlockOn, probed at
	// every quiescence and matched by key in Gate.Wake; parkFree holds
	// spent records for reuse.
	parked   []*parkRec
	parkFree []*parkRec

	// watched holds the tokened Gate.Wait waiters that have done
	// channels, probed at every quiescence.
	watched []*vwaiter

	// starts[started:] holds the functions of Gate.Go children not yet
	// running, in spawn order; next holds the one the advancer just
	// made a goroutine for, until that goroutine takes it. child is
	// runChild as a func value, made once so a start allocates nothing.
	starts  []func()
	started int
	next    func()
	child   func()

	// routes maps a listener address to the in-process HTTP server
	// registered under it (see Listen); xfree holds spent in-process
	// exchanges for reuse.
	routes map[string]*Server
	xfree  []*exchange

	// gen increments on every state change; the settle pass commits only
	// after it holds still across several yield rounds.
	gen uint64

	// advancing is true while an advancer goroutine is live; advance is
	// advanceLoop as a func value, made once so spawning one allocates
	// no closure.
	advancing bool
	advance   func()

	// ioGraceUntil is a wall-clock deadline armed at every Gate.BlockIO
	// entry and socket request flush or return: settles stay in wall
	// mode, and keep the debt, until it passes.
	ioGraceUntil time.Time

	// settles counts settle passes run (read by tests).
	settles int
	// nap is the settle's wall-clock timer, made at the first socket
	// settle and reused by every later one. Only the advancer, of which
	// one is live at a time, touches it. A time.Sleep would run on the
	// short-lived advancer goroutine, and the runtime allocates the
	// timer of a goroutine's first sleep.
	nap *time.Timer

	wdArmed   bool
	wdTimeout time.Duration

	gate *Gate
}

// NewVirtual returns a virtual clock starting at origin. The zero
// origin is allowed but experiments conventionally pass a fixed epoch
// so artifacts carry stable absolute timestamps.
func NewVirtual(origin time.Time) *Virtual {
	v := &Virtual{
		now:       origin,
		reg:       make(map[uintptr]int),
		routes:    make(map[string]*Server),
		wdTimeout: 5 * time.Second,
	}
	v.gate = &Gate{v: v, clock: v}
	v.advance = v.advanceLoop
	v.child = v.runChild
	return v
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since returns the virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep parks the caller until virtual time advances by d (Gate.Wait
// with no done channel). A registered caller releases its run token for
// the duration; an unregistered caller parks an untokened waiter.
func (v *Virtual) Sleep(d time.Duration) { v.gate.Wait(d) }

// After returns a channel that receives the virtual time once d has
// elapsed. Its waiter carries no run token: registered code selecting on
// a timer must use Gate.Wait.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.Now()
		return ch
	}
	v.mu.Lock()
	v.addWaiterLocked(&vwaiter{ch: ch}, d, false)
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	return ch
}

// Gate returns the clock's token gate. All calls return the same gate.
func (v *Virtual) Gate() *Gate { return v.gate }

// SetDeadlockTimeout adjusts the wall-clock watchdog that panics when
// every registered goroutine stays blocked with no waiter pending for d
// (a deadlock in the system under test). Zero disables it.
func (v *Virtual) SetDeadlockTimeout(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.wdTimeout = d
}

// addWaiterLocked arms w, whose channel is empty, to expire d from now.
func (v *Virtual) addWaiterLocked(w *vwaiter, d time.Duration, tokened bool) {
	w.deadline = v.now.Add(d)
	w.seq = v.seq
	w.tokened = tokened
	w.fired = false
	w.done = [2]<-chan struct{}{}
	w.key = nil
	w.watch = -1
	v.seq++
	heap.Push(&v.waiters, w)
	v.gen++
}

// maybeAdvanceLocked spawns an advancer, a short-lived goroutine that is
// never a participant, when the system may be quiescent.
func (v *Virtual) maybeAdvanceLocked() {
	if v.advancing || v.running != 0 {
		return
	}
	v.advancing = true
	go v.advance()
}

// advanceLoop runs until a token is out or nothing is left to do. Each
// step first pays the settle debt, if a wait the clock cannot probe is
// outstanding, then probes the waits it can, and only then starts a
// spawned goroutine or fires the earliest deadline.
func (v *Virtual) advanceLoop() {
	v.mu.Lock()
	for v.running == 0 && v.waking.Load() == 0 {
		// An opaque waiter may have been signalled by a peer that parked
		// since, and needs CPU to take its token back.
		if v.opaque > 0 && v.debt {
			if !v.settleLocked() {
				break // a registered goroutine resumed during the settle
			}
		}
		if v.probeLocked() {
			break
		}
		if v.started < len(v.starts) {
			v.next = v.starts[v.started]
			v.starts[v.started] = nil
			if v.started++; v.started == len(v.starts) {
				v.starts, v.started = v.starts[:0], 0
			}
			v.running++
			v.gen++
			go v.child()
			continue
		}
		if v.waiters.Len() == 0 {
			if v.opaque+len(v.parked) > 0 {
				v.armWatchdogLocked()
			}
			break
		}
		w := heap.Pop(&v.waiters).(*vwaiter)
		if w.deadline.After(v.now) {
			v.now = w.deadline
		}
		w.fired = true
		v.unwatchLocked(w)
		v.gen++
		if w.tokened {
			v.running++
		}
		w.ch <- v.now
	}
	v.advancing = false
	v.mu.Unlock()
}

// probeLocked applies Wake to every wait at once: it hands the run token
// back to each parked BlockOn whose ready check holds and each tokened
// Wait whose done channel is closed. It reports whether it handed any
// out. A missed Wake or a context cancel therefore never lets time
// move past a goroutine that could run.
func (v *Virtual) probeLocked() bool {
	n := v.running
	// Backwards: a grant moves the last record into the slot it frees.
	for i := len(v.parked) - 1; i >= 0; i-- {
		if r := v.parked[i]; r.ready() {
			v.grantLocked(r)
		}
	}
	for i := len(v.watched) - 1; i >= 0; i-- {
		if w := v.watched[i]; w.doneClosed() {
			v.grantWaitLocked(w)
		}
	}
	return v.running > n
}

// grantWaitLocked hands a tokened Wait whose done channel closed its run
// token back now, not at its retraction.
func (v *Virtual) grantWaitLocked(w *vwaiter) {
	v.unwatchLocked(w)
	w.tokened = false
	v.running++
	v.gen++
}

// settleLocked yields until the observable state (gen) holds still for
// three consecutive rounds with no run token outstanding. Before a jump
// within ioGrace of a socket hand-off, the first round after each
// change is a 200 µs wall sleep instead, about twice a loopback
// hand-off on a loaded two-core host, so netpoll delivers bytes still
// in flight (at 20 µs a seventh of perfbench's replayed requests
// diverged). A settle that begins once ioGrace has passed pays the
// debt. Returns false if a registered goroutine took its token back, in
// which case the advance must abort.
func (v *Virtual) settleLocked() bool {
	v.settles++
	paid := v.ioGraceUntil.IsZero() || !time.Now().Before(v.ioGraceUntil)
	stable := 0
	last := v.gen
	for stable < 3 {
		if v.running > 0 || v.waking.Load() > 0 {
			return false
		}
		// A start does not move time, so only a jump waits on netpoll.
		io := stable == 0 && v.blockedIO > 0 && v.started == len(v.starts) && time.Now().Before(v.ioGraceUntil)
		if io {
			if v.nap == nil {
				v.nap = time.NewTimer(settleNap)
			} else {
				v.nap.Reset(settleNap)
			}
		}
		v.mu.Unlock()
		if io {
			<-v.nap.C
		} else {
			for i := 0; i < 32; i++ {
				runtime.Gosched()
			}
		}
		v.mu.Lock()
		if v.gen == last {
			stable++
		} else {
			stable = 0
			last = v.gen
		}
	}
	if v.running > 0 {
		return false
	}
	if paid {
		v.debt = false
	}
	return true
}

// armWatchdogLocked starts a wall timer that panics with a state dump
// if the clock stays wedged: zero tokens, blocked goroutines, an empty
// heap, and no state change for the timeout. That combination means the
// system under test deadlocked (nothing registered can run, and no
// timer exists to wake anything).
func (v *Virtual) armWatchdogLocked() {
	if v.wdArmed || v.wdTimeout <= 0 {
		return
	}
	v.wdArmed = true
	snap := v.gen
	timeout := v.wdTimeout
	time.AfterFunc(timeout, func() {
		v.mu.Lock()
		v.wdArmed = false
		stuck := v.gen == snap && v.running == 0 && v.waiters.Len() == 0 &&
			v.opaque+len(v.parked) > 0
		var dump string
		if stuck {
			dump = v.dumpLocked()
		}
		v.mu.Unlock()
		if stuck {
			panic(fmt.Sprintf("simclock: virtual clock deadlocked for %v: "+
				"every registered goroutine is blocked with no pending timer\n%s",
				timeout, dump))
		}
	})
}

func (v *Virtual) dumpLocked() string {
	head := fmt.Sprintf("virtual clock: now=%s registered=%d running=%d parked=%d opaque=%d blockedIO=%d waiters=%d",
		v.now.Format(time.RFC3339Nano), len(v.reg), v.running, len(v.parked), v.opaque, v.blockedIO, v.waiters.Len())
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return head + "\n" + string(buf[:n])
}

// vwaiter is one parked deadline. tokened records whether the parked
// goroutine still holds back a run token that must be granted with its
// wake — by the advancer firing it or by a probe of its done channels;
// fired lets Gate.Wait tell a cancelled waiter from one whose token was
// already returned and whose time still sits in ch. watch is its slot
// in Virtual.watched, -1 when not watched; key is the Gate.WaitOn key
// Wake matches it by.
type vwaiter struct {
	deadline time.Time
	seq      uint64
	ch       chan time.Time
	done     [2]<-chan struct{}
	key      any
	tokened  bool
	fired    bool
	index    int
	watch    int
}

// doneClosed reports whether one of w's done channels is closed. Wait's
// done channels are only ever closed, never sent on, so the receive
// takes nothing from a peer.
func (w *vwaiter) doneClosed() bool {
	for _, d := range w.done {
		select {
		case <-d:
			return true
		default:
		}
	}
	return false
}

// unwatchLocked drops w from the probed Waits, if it is there.
func (v *Virtual) unwatchLocked(w *vwaiter) {
	i := w.watch
	if i < 0 {
		return
	}
	last := len(v.watched) - 1
	v.watched[i] = v.watched[last]
	v.watched[i].watch = i
	v.watched[last] = nil
	v.watched = v.watched[:last]
	w.watch = -1
}

// vheap orders waiters by deadline, ties broken by insertion sequence
// so same-instant wakes replay in a stable order.
type vheap []*vwaiter

func (h vheap) Len() int { return len(h) }
func (h vheap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h vheap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *vheap) Push(x any) {
	w := x.(*vwaiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *vheap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

// Gate is the token API registered goroutines thread through their
// spawn and blocking points so a Virtual clock can tell "everyone is
// waiting on the clock" from "someone is still computing". Obtain one
// with GateFor: for a Virtual clock it is the live gate; for every
// other clock it is a no-op shim (Go spawns plainly, Block runs its
// function inline, Wait falls back to a select on clock.After), so
// production code paths carry no virtual-time machinery at runtime.
//
// The protocol:
//
//   - Enter / Exit bracket a goroutine that participates in virtual
//     time (nestable; typically an experiment's main goroutine).
//   - Go spawns a registered goroutine, started in spawn order at the
//     next quiescence, before time moves.
//   - BlockOn(key, ready, fn) marks the caller as waiting on a peer for
//     fn's duration. The clock probes ready at every quiescence, and a
//     waker may call Wake(key) to hand the token back at once.
//   - Block(fn) is a join: a wait the clock cannot probe, which must end
//     only through another goroutine's Exit, Block or BlockIO (say, a
//     WaitGroup whose goroutines are done when they exit).
//   - BlockIO(fn) marks the caller as waiting on a real socket.
//   - Wait(d, done...) parks on the clock like Sleep but also wakes on
//     a done channel, returning -1 for the timer or the channel's index.
//     WaitOn(key, d, done...) is a Wait that Wake(key) also ends.
//   - Mutex and RWMutex are locks that may be held across clock waits.
//
// Rules: a registered goroutine blocks only via Sleep, BlockOn, Block,
// BlockIO, Wait or a Mutex, never on a naked After. A violation freezes
// the clock (the Go test timeout's stack dump shows the offender); a
// deadlock while the clock is quiescent trips the watchdog panic.
type Gate struct {
	v     *Virtual
	clock Clock
}

// GateFor returns the gate for clock: Virtual's live gate, or a no-op
// gate (still carrying the clock, for Wait's fallback select) for Real,
// Scaled, and Manual clocks.
func GateFor(clock Clock) *Gate {
	if v, ok := clock.(*Virtual); ok {
		return v.gate
	}
	return &Gate{clock: clock}
}

// Enter registers the calling goroutine. Calls nest; each Enter must be
// matched by an Exit on the same goroutine before it returns: the gate
// knows a goroutine by its runtime descriptor (gid), which a goroutine
// started later may reuse.
func (g *Gate) Enter() {
	if g.v == nil {
		return
	}
	id := gid()
	v := g.v
	v.mu.Lock()
	if v.reg[id] == 0 {
		v.running++
	}
	v.reg[id]++
	v.gen++
	v.mu.Unlock()
}

// Exit unwinds one Enter. The outermost Exit releases the goroutine's
// run token.
func (g *Gate) Exit() {
	if g.v == nil {
		return
	}
	id := gid()
	v := g.v
	v.mu.Lock()
	v.reg[id]--
	if v.reg[id] <= 0 {
		delete(v.reg, id)
		v.running--
		v.debt = true
		v.gen++
		v.maybeAdvanceLocked()
	}
	v.mu.Unlock()
}

// Go runs fn on a new registered goroutine. The start is a zero-delay
// event: children start one at a time, in spawn order, when the clock
// is next quiescent and before any timer fires, so same-instant spawns
// replay in one order however the Go scheduler runs their parents. The
// goroutine itself is made at the start, by the advancer.
func (g *Gate) Go(fn func()) {
	if g.v == nil {
		go fn()
		return
	}
	v := g.v
	v.mu.Lock()
	v.starts = append(v.starts, fn)
	v.gen++
	v.maybeAdvanceLocked()
	v.mu.Unlock()
}

// runChild is a Gate.Go child's goroutine: it registers, holding the
// run token the advancer counted for it, and runs next. The advancer
// starts one child per quiescence, and that child's token keeps the
// clock from the next one until it has run, so next is its own.
func (v *Virtual) runChild() {
	id := gid()
	v.mu.Lock()
	fn := v.next
	v.next = nil
	v.reg[id]++
	v.mu.Unlock()
	defer v.gate.Exit()
	fn()
}

// Block runs fn with the caller's run token released, as a join: a
// wait the clock cannot probe, which must end only through another
// goroutine's Exit, Block or BlockIO — a WaitGroup of goroutines that
// exit once done, say. Those events arm a settle pass that gives the
// joiner the CPU before time moves; a signal followed by a clock wait
// arms none, so such waits use BlockOn. Unregistered callers just run
// fn.
func (g *Gate) Block(fn func()) { g.block(nil, nil, fn, false) }

// BlockIO runs fn with the caller's run token released, marking it as
// waiting on I/O outside the process: the socket edge of a client
// whose server is not in-process. The advancer settles with wall
// micro-sleeps within ioGrace of its entry.
func (g *Gate) BlockIO(fn func()) { g.block(nil, nil, fn, true) }

// BlockOn runs fn, a blocking wait on a peer, with the caller's run
// token released. ready reports whether fn would return at once, and it
// must be exact: the clock calls it at every quiescence and hands the
// token back when it holds, so a ready that is true while fn still
// blocks would stop virtual time, and one that misses a way fn returns
// lets time move before the caller runs again. ready runs under the
// clock's lock, from Wake and from the probe, so it must not block or
// take a lock whose holder may call into the clock. A ready wait keeps
// the caller's token. A waker may call Wake(key) to hand the token back
// at once; without it the hand-back waits for the next quiescence,
// which still comes before time moves.
func (g *Gate) BlockOn(key any, ready func() bool, fn func()) { g.block(key, ready, fn, false) }

// parkRec is one registered goroutine blocked in Gate.BlockOn: its key,
// its wait's ready check, whether its run token was already handed
// back, and its slot in Virtual.parked.
type parkRec struct {
	key   any
	ready func() bool
	woken bool
	at    int
}

func (g *Gate) block(key any, ready func() bool, fn func(), io bool) {
	v := g.v
	if v == nil {
		fn()
		return
	}
	id := gid()
	v.mu.Lock()
	if _, reg := v.reg[id]; !reg || (ready != nil && ready()) {
		v.mu.Unlock()
		fn()
		return
	}
	var rec *parkRec
	if ready != nil {
		rec = v.parkLocked(key, ready)
	} else {
		v.opaque++
		v.debt = true
		if io {
			// The request is leaving on a real socket.
			v.blockedIO++
			v.ioGraceUntil = time.Now().Add(ioGrace)
		}
	}
	v.running--
	v.gen++
	v.maybeAdvanceLocked()
	v.mu.Unlock()

	fn()

	v.waking.Add(1)
	v.mu.Lock()
	v.waking.Add(-1)
	switch {
	case rec == nil:
		v.opaque--
		if io {
			v.blockedIO--
		}
		v.running++
	case !rec.woken:
		v.unparkLocked(rec)
		v.running++
	}
	if rec != nil {
		*rec = parkRec{}
		v.parkFree = append(v.parkFree, rec)
	}
	v.gen++
	v.mu.Unlock()
}

// parkLocked records a BlockOn wait, reusing a spent record.
func (v *Virtual) parkLocked(key any, ready func() bool) *parkRec {
	var r *parkRec
	if n := len(v.parkFree); n > 0 {
		r, v.parkFree = v.parkFree[n-1], v.parkFree[:n-1]
	} else {
		r = new(parkRec)
	}
	r.key, r.ready, r.at = key, ready, len(v.parked)
	v.parked = append(v.parked, r)
	return r
}

// unparkLocked drops r from the parked waits.
func (v *Virtual) unparkLocked(r *parkRec) {
	last := len(v.parked) - 1
	v.parked[r.at] = v.parked[last]
	v.parked[r.at].at = r.at
	v.parked[last] = nil
	v.parked = v.parked[:last]
}

// grantLocked hands a parked goroutine its run token back.
func (v *Virtual) grantLocked(r *parkRec) {
	v.unparkLocked(r)
	r.woken = true
	v.running++
	v.gen++
}

// armGrace re-arms ioGrace: bytes are leaving on a real socket.
func (v *Virtual) armGrace() {
	v.mu.Lock()
	v.ioGraceUntil = time.Now().Add(ioGrace)
	v.debt = true
	v.mu.Unlock()
}

// Wake hands the run token back to every goroutine parked in BlockOn
// on key whose wait is ready, and in WaitOn on key whose done channel
// is closed: the fast path of the probe each quiescence runs anyway.
// Call it right after the operation that makes their wait ready. The ready re-check matters: a Wake that lands late,
// after the wakee already took what it waited for and parked again,
// must not hand a token to a wait that still blocks — that goroutine
// could not give it up, and virtual time would stop.
func (g *Gate) Wake(key any) {
	if g.v == nil {
		return
	}
	v := g.v
	v.mu.Lock()
	defer v.mu.Unlock()
	// Backwards: a grant moves the last record into the slot it frees.
	for i := len(v.parked) - 1; i >= 0; i-- {
		if r := v.parked[i]; r.key == key && r.ready() {
			v.grantLocked(r)
		}
	}
	for i := len(v.watched) - 1; i >= 0; i-- {
		if w := v.watched[i]; w.key == key && w.doneClosed() {
			v.grantWaitLocked(w)
		}
	}
}

// Wait parks the caller for d of clock time, but wakes early if any of
// the done channels becomes ready. It returns -1 when the timer fired
// and i when done[i] fired first. It is the registered replacement for
// select { case <-stop: ...; case <-clock.After(d): ... } loops. A done
// channel must only ever be closed, never sent on: the clock probes a
// registered caller's done channels at every quiescence by receiving
// from them.
func (g *Gate) Wait(d time.Duration, done ...<-chan struct{}) int {
	return g.wait(nil, d, done)
}

// WaitOn is Wait for a caller whose done channels a peer closes and
// then Wakes key, as it would for a BlockOn on key: the Wake hands the
// caller its run token back at once instead of at the next quiescence.
func (g *Gate) WaitOn(key any, d time.Duration, done ...<-chan struct{}) int {
	return g.wait(key, d, done)
}

func (g *Gate) wait(key any, d time.Duration, done []<-chan struct{}) int {
	if g.v == nil {
		return waitFallback(g.clock, d, done)
	}
	if d <= 0 {
		return -1
	}
	id := gid()
	v := g.v
	v.mu.Lock()
	_, registered := v.reg[id]
	var w *vwaiter
	if n := len(v.free); n > 0 {
		w, v.free = v.free[n-1], v.free[:n-1]
	} else {
		w = &vwaiter{ch: make(chan time.Time, 1)}
	}
	v.addWaiterLocked(w, d, registered)
	if registered {
		if len(done) > 0 {
			copy(w.done[:], done)
			w.key = key
			w.watch = len(v.watched)
			v.watched = append(v.watched, w)
		}
		v.running--
		v.gen++
	}
	v.maybeAdvanceLocked()
	v.mu.Unlock()

	idx := selectTimer(w.ch, done)
	if idx < 0 {
		v.mu.Lock()
		v.free = append(v.free, w)
		v.mu.Unlock()
		return idx
	}
	// Woken by a done channel: retract the waiter. If the advancer fired
	// it concurrently the token (if any) was already granted back, so
	// only the un-fired case needs fixing up; the fired one left its time
	// in the channel, which must not wake the waiter's next user.
	v.waking.Add(1)
	v.mu.Lock()
	v.waking.Add(-1)
	if w.fired {
		<-w.ch
	} else {
		heap.Remove(&v.waiters, w.index)
		v.unwatchLocked(w)
		if w.tokened {
			v.running++
		}
		v.gen++
	}
	v.free = append(v.free, w)
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	return idx
}

// waitFallback is Wait for non-virtual clocks: a plain select between
// the clock timer and the done channels.
func waitFallback(clock Clock, d time.Duration, done []<-chan struct{}) int {
	return selectTimer(clock.After(d), done)
}

// selectTimer selects between a timer channel and up to two done
// channels, returning -1 for the timer and the done index otherwise. A
// nil channel never fires, so the missing ones stay nil.
func selectTimer(timer <-chan time.Time, done []<-chan struct{}) int {
	var d [2]<-chan struct{}
	if copy(d[:], done) < len(done) {
		panic("simclock: Wait takes at most two done channels")
	}
	select {
	case <-timer:
		return -1
	case <-d[0]:
		return 0
	case <-d[1]:
		return 1
	}
}
