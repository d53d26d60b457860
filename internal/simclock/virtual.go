package simclock

import (
	"container/heap"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ioGrace is the wall window after bytes leave on a real socket (a
// BlockIO entry or exit, a socket request's flush or return) during
// which a jump's settle pass first sleeps, so netpoll can hand them
// over. In-process HTTP never needs it (see Listen).
const ioGrace = 10 * time.Millisecond

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
// advancer starts the next spawned goroutine or fires the earliest
// deadline, after a settle pass while any goroutine is blocked on a
// peer. HTTP servers on the clock serve in-process callers on
// registered goroutines (see Listen); an unregistered goroutine may
// still Sleep, but its waiter carries no token and no ordering promise.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	seq     uint64
	waiters vheap

	// reg maps goroutine id -> Enter nesting depth for registered
	// goroutines.
	reg map[int64]int

	// running counts registered goroutines holding their run token. Time
	// may only advance when it is zero.
	running int
	// waking counts goroutines whose wait ended but which have not yet
	// retaken mu to say so; the advancer yields to them.
	waking atomic.Int32
	// blocked counts registered goroutines inside Gate.Block, BlockOn or
	// BlockIO; blockedIO counts those in BlockIO.
	blocked   int
	blockedIO int

	// parked maps a Gate.BlockOn key to the goroutines blocked on it, so
	// Gate.Wake can hand their run tokens back.
	parked map[any][]*parkRec

	// starts holds the start signals of Gate.Go children not yet
	// running, in spawn order.
	starts []chan struct{}

	// routes maps a listener address to the in-process HTTP server
	// registered under it (see Listen).
	routes map[string]*Server

	// gen increments on every state change; the settle pass commits only
	// after it holds still across several yield rounds.
	gen uint64

	// advancing is true while an advancer goroutine is live.
	advancing bool

	// ioGraceUntil is a wall-clock deadline armed at every Gate.BlockIO
	// entry and exit: settles stay in wall mode until it passes.
	ioGraceUntil time.Time

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
		reg:       make(map[int64]int),
		parked:    make(map[any][]*parkRec),
		routes:    make(map[string]*Server),
		wdTimeout: 5 * time.Second,
	}
	v.gate = &Gate{v: v, clock: v}
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
	w := v.addWaiterLocked(d, false)
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	return w.ch
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

// addWaiterLocked pushes a waiter expiring d from now.
func (v *Virtual) addWaiterLocked(d time.Duration, tokened bool) *vwaiter {
	w := &vwaiter{
		deadline: v.now.Add(d),
		seq:      v.seq,
		ch:       make(chan time.Time, 1),
		tokened:  tokened,
	}
	v.seq++
	heap.Push(&v.waiters, w)
	v.gen++
	return w
}

// maybeAdvanceLocked spawns an advancer, a short-lived goroutine that is
// never a participant, when the system may be quiescent.
func (v *Virtual) maybeAdvanceLocked() {
	if v.advancing || v.running != 0 {
		return
	}
	v.advancing = true
	go v.advanceLoop()
}

func (v *Virtual) advanceLoop() {
	v.mu.Lock()
	for v.running == 0 && v.waking.Load() == 0 {
		// A goroutine blocked on a peer may have been signalled by a
		// waker that parked since, and needs CPU to take its token back.
		if v.blocked > 0 {
			//swaplint:ignore lockcheck settleLocked drops and reacquires v.mu around its yield rounds by design
			if !v.settleLocked() {
				break // a registered goroutine resumed during the settle
			}
		}
		if len(v.starts) > 0 {
			close(v.starts[0])
			v.starts = v.starts[1:]
			v.running++
			v.gen++
			continue
		}
		if v.waiters.Len() == 0 {
			if v.blocked > 0 {
				v.armWatchdogLocked()
			}
			break
		}
		w := heap.Pop(&v.waiters).(*vwaiter)
		if w.deadline.After(v.now) {
			v.now = w.deadline
		}
		w.fired = true
		v.gen++
		if w.tokened {
			v.running++
		}
		w.ch <- v.now
	}
	v.advancing = false
	v.mu.Unlock()
}

// settleLocked yields until the observable state (gen) holds still for
// three consecutive rounds with no run token outstanding. Before a jump
// within ioGrace of a socket hand-off, the first round after each
// change is a 200 µs wall sleep instead, about twice a loopback
// hand-off on a loaded two-core host, so netpoll delivers bytes still
// in flight (at 20 µs a seventh of perfbench's replayed requests
// diverged). Returns false if a registered goroutine took its token
// back, in which case the advance must abort.
func (v *Virtual) settleLocked() bool {
	stable := 0
	last := v.gen
	for stable < 3 {
		if v.running > 0 || v.waking.Load() > 0 {
			return false
		}
		// A start does not move time, so only a jump waits on netpoll.
		io := stable == 0 && v.blockedIO > 0 && len(v.starts) == 0 && time.Now().Before(v.ioGraceUntil)
		v.mu.Unlock()
		if io {
			time.Sleep(200 * time.Microsecond)
		} else {
			for i := 0; i < 32; i++ {
				runtime.Gosched()
			}
		}
		//swaplint:ignore lockcheck reacquisition of the caller-held lock; settleLocked returns with v.mu held
		v.mu.Lock()
		if v.gen == last {
			stable++
		} else {
			stable = 0
			last = v.gen
		}
	}
	return v.running == 0
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
			v.blocked > 0
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
	head := fmt.Sprintf("virtual clock: now=%s registered=%d running=%d blocked=%d blockedIO=%d waiters=%d",
		v.now.Format(time.RFC3339Nano), len(v.reg), v.running, v.blocked, v.blockedIO, v.waiters.Len())
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return head + "\n" + string(buf[:n])
}

// vwaiter is one parked deadline. tokened records whether the parked
// goroutine gave up a run token that the advancer must grant back
// before (well, atomically with) waking it; fired lets Gate.Wait tell a
// cancelled waiter from one whose token was already returned.
type vwaiter struct {
	deadline time.Time
	seq      uint64
	ch       chan time.Time
	tokened  bool
	fired    bool
	index    int
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
//   - Block(fn) marks the caller as waiting on another registered
//     goroutine (channel receive, WaitGroup.Wait, …) for fn's duration.
//   - BlockIO(fn) marks the caller as waiting on a real socket.
//   - BlockOn(key, ready, fn) is Block for a wait whose waker calls
//     Wake(key), handing the token back with no window for time to move.
//   - Wait(d, done...) parks on the clock like Sleep but also wakes on
//     a done channel, returning -1 for the timer or the channel's index.
//
// Rules: a registered goroutine blocks only via Sleep, Block, BlockOn,
// BlockIO, or Wait, never on a naked After. A violation freezes the
// clock (the Go test timeout's stack dump shows the offender); a
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
// matched by an Exit on the same goroutine.
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
		v.gen++
		v.maybeAdvanceLocked()
	}
	v.mu.Unlock()
}

// Go runs fn on a new registered goroutine. The start is a zero-delay
// event: children start one at a time, in spawn order, when the clock
// is next quiescent and before any timer fires, so same-instant spawns
// replay in one order however the Go scheduler runs their parents.
func (g *Gate) Go(fn func()) {
	if g.v == nil {
		go fn()
		return
	}
	v := g.v
	start := make(chan struct{})
	v.mu.Lock()
	v.starts = append(v.starts, start)
	v.gen++
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	go func() {
		<-start
		id := gid()
		v.mu.Lock()
		v.reg[id]++
		v.mu.Unlock()
		defer g.Exit()
		fn()
	}()
}

// Block runs fn with the caller's run token released, marking it as
// waiting on another registered goroutine. Unregistered callers just
// run fn.
func (g *Gate) Block(fn func()) { g.block(nil, nil, fn, false) }

// BlockIO runs fn with the caller's run token released, marking it as
// waiting on I/O outside the process: the socket edge of a client
// whose server is not in-process. The advancer settles with wall
// micro-sleeps within ioGrace of its entry and exit.
func (g *Gate) BlockIO(fn func()) { g.block(nil, nil, fn, true) }

// BlockOn is Block for a wait a peer ends by calling Wake(key): fn is
// the blocking receive, ready reports (without blocking or taking locks
// the waker may hold while calling Wake) whether it would return at
// once. A ready wait keeps the caller's run token; otherwise the caller
// parks on key and Wake grants its token back under the clock lock, so
// virtual time cannot advance between the hand-off and the wakee
// running again — a plain Block leaves that window to the settle pass,
// which a descheduled wakee can outlast.
func (g *Gate) BlockOn(key any, ready func() bool, fn func()) { g.block(key, ready, fn, false) }

// parkRec is one registered goroutine blocked in Gate.BlockOn: its
// wait's ready check, and whether Gate.Wake already handed its run
// token back.
type parkRec struct {
	ready func() bool
	woken bool
}

func (g *Gate) block(key any, ready func() bool, fn func(), io bool) {
	if g.v == nil {
		fn()
		return
	}
	g.v.park(g.v.registered(), key, ready, fn, io)
}

// registered reports whether the calling goroutine is registered.
func (v *Virtual) registered() bool {
	id := gid()
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.reg[id]
	return ok
}

// park is block for a caller whose registration is known.
func (v *Virtual) park(reg bool, key any, ready func() bool, fn func(), io bool) {
	v.mu.Lock()
	if !reg || (ready != nil && ready()) {
		v.mu.Unlock()
		fn()
		return
	}
	var rec *parkRec
	if ready != nil {
		rec = &parkRec{ready: ready}
		v.parked[key] = append(v.parked[key], rec)
	}
	v.running--
	v.blocked++
	if io {
		// The request is leaving on a real socket.
		v.blockedIO++
		v.ioGraceUntil = time.Now().Add(ioGrace)
	}
	v.gen++
	v.maybeAdvanceLocked()
	v.mu.Unlock()

	fn()

	v.waking.Add(1)
	v.mu.Lock()
	v.waking.Add(-1)
	if rec == nil || !rec.woken {
		if rec != nil {
			v.unparkLocked(key, func(r *parkRec) bool { return r == rec })
		}
		v.blocked--
		if io {
			v.blockedIO--
		}
		v.running++
	}
	v.gen++
	v.mu.Unlock()
}

// armGrace re-arms ioGrace: bytes are leaving on a real socket.
func (v *Virtual) armGrace() {
	v.mu.Lock()
	v.ioGraceUntil = time.Now().Add(ioGrace)
	v.mu.Unlock()
}

// Wake hands the run token back to every goroutine parked in BlockOn
// on key whose wait is ready. Call it right after the channel operation
// that makes their wait ready. The ready re-check matters: a Wake that
// lands late, after the wakee already took what it waited for and
// parked again, must not hand a token to a wait that still blocks —
// that goroutine could not give it up, and virtual time would stop.
func (g *Gate) Wake(key any) {
	if g.v == nil {
		return
	}
	v := g.v
	v.mu.Lock()
	defer v.mu.Unlock()
	v.unparkLocked(key, func(r *parkRec) bool {
		if !r.ready() {
			return false
		}
		r.woken = true
		v.blocked--
		v.running++
		v.gen++
		return true
	})
}

// unparkLocked drops the goroutines parked on key that match.
func (v *Virtual) unparkLocked(key any, match func(*parkRec) bool) {
	if recs := slices.DeleteFunc(v.parked[key], match); len(recs) > 0 {
		v.parked[key] = recs
	} else {
		delete(v.parked, key)
	}
}

// Wait parks the caller for d of clock time, but wakes early if any of
// the done channels becomes ready. It returns -1 when the timer fired
// and i when done[i] fired first. It is the registered replacement for
// select { case <-stop: ...; case <-clock.After(d): ... } loops.
func (g *Gate) Wait(d time.Duration, done ...<-chan struct{}) int {
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
	w := v.addWaiterLocked(d, registered)
	if registered {
		v.running--
		v.gen++
	}
	v.maybeAdvanceLocked()
	v.mu.Unlock()

	idx := selectTimer(w.ch, done)
	if idx >= 0 {
		// Woken by a done channel: retract the waiter. If the advancer
		// fired it concurrently the token (if any) was already granted
		// back, so only the un-fired case needs fixing up.
		v.waking.Add(1)
		v.mu.Lock()
		v.waking.Add(-1)
		if !w.fired {
			heap.Remove(&v.waiters, w.index)
			if w.tokened {
				v.running++
			}
			v.gen++
		}
		v.maybeAdvanceLocked()
		v.mu.Unlock()
	}
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

// gid returns the calling goroutine's id, parsed from the stack header
// ("goroutine N [running]:"). Goroutine-local identity is all the gate
// needs; the parse costs about a microsecond, far below the wall time
// virtual scheduling saves.
func gid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
