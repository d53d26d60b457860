package simclock

import (
	"container/heap"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"
)

var vtrace = os.Getenv("SIMCLOCK_TRACE") != ""

// ioGrace is the wall window after a BlockIO entry or exit during which
// the settle pass keeps using wall micro-sleeps: long enough for a
// localhost TCP hand-off to come back through netpoll and the receiving
// goroutine to reach its next clock interaction, short enough that a
// multi-thousand-chunk transfer replay pays it only at request
// boundaries.
const ioGrace = 10 * time.Millisecond

// Virtual is a concurrency-aware discrete-event clock: Sleep and After
// park their callers on a deadline heap, and time jumps straight to the
// next deadline once the system is quiescent — no wall-clock waiting at
// all. It is the experiment harness's clock (à la Revati's time-warp
// emulation): a month of simulated serving replays in however long the
// bookkeeping takes, and the resulting simulated timestamps are a pure
// function of the event deadlines, so repeated runs produce
// byte-identical artifacts.
//
// Quiescence is tracked by a token protocol (see Gate): every
// *registered* goroutine owns a run token while it is executing, gives
// the token up when it parks on the clock (Sleep / Gate.Wait) or blocks
// on another goroutine (Gate.Block / Gate.BlockIO), and gets it back
// when it resumes. When the outstanding-token count hits zero nothing
// registered can make progress without time moving, so an advancer
// fires the earliest deadline. Unregistered goroutines (net/http
// serving goroutines, engine handlers) may also park on the clock;
// their waiters carry no token, and the advancer runs a settle pass
// (yield rounds, escalating to short wall sleeps while registered
// goroutines are blocked in I/O) before each jump so late parkers are
// not left behind.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	seq     uint64
	waiters vheap

	// reg maps goroutine id -> Enter nesting depth for registered
	// goroutines.
	reg map[int64]int

	// running counts registered goroutines that currently hold their run
	// token (neither parked on the clock nor blocked). Time may only
	// advance when it is zero.
	running int
	// blocked / blockedIO count registered goroutines inside Gate.Block /
	// Gate.BlockIO. blockedIO > 0 switches the settle pass to wall-clock
	// micro-sleeps, since progress then depends on goroutines outside the
	// Go scheduler's immediate run queue (real HTTP round trips).
	blocked   int
	blockedIO int

	// parked maps a Gate.BlockOn key to the registered goroutines blocked
	// on it, so Gate.Wake can hand their run tokens back at the moment
	// it makes their wait ready.
	parked map[any][]*parkRec

	// tickets are the open HTTP exchanges of registered clients (see
	// Gate.Send); onWire counts those whose request or response is in
	// flight. A settle does not commit while one holds the clock.
	tickets   map[uint64]*ticket
	ticketSeq uint64
	onWire    int
	wireFree  chan struct{} // closed when onWire drops to zero

	// gen increments on every state change visible to the settle pass:
	// waiter added, waiter fired, token acquired or released. The settle
	// pass commits only after gen holds still across several yield
	// rounds.
	gen uint64

	// advancing is true while an advancer goroutine is live.
	advancing bool

	// unregActive is set when an untokened waiter fires and cleared by a
	// stable settle: it records that unregistered goroutines are
	// interacting with the clock, so advances must settle even when
	// nothing is blocked.
	unregActive bool

	// unregOut counts untokened waiters that have fired without a new
	// untokened waiter being parked since: an estimate of how many
	// unregistered goroutines are off the heap doing real work. While it
	// is zero every known unregistered clock user is parked on a
	// deadline, so a settle pass can commit on scheduler yields alone —
	// the wall micro-sleeps that dominate a transfer's per-chunk cost are
	// reserved for the moments (request boundaries, response hand-offs)
	// when an unregistered goroutine really is in flight through netpoll.
	unregOut int

	// ioGraceUntil is a wall-clock deadline: settles stay in wall mode
	// until it passes. It is armed at every Gate.BlockIO entry and exit —
	// the moments when request or response bytes are in flight through
	// netpoll toward an unregistered goroutine that has not yet touched
	// the clock, so unregOut cannot know about it. Without the grace the
	// advancer replays every pending periodic timer at memory speed while
	// the kernel delivers the bytes, inflating simulated latencies by
	// orders of magnitude.
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
		tickets:   make(map[uint64]*ticket),
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

// Sleep parks the caller until virtual time advances by d. A registered
// caller releases its run token for the duration; an unregistered
// caller parks an untokened waiter (the advancer's settle pass keeps it
// from being left behind).
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	id := gid()
	v.mu.Lock()
	_, registered := v.reg[id]
	w := v.addWaiterLocked(d, registered)
	if registered {
		v.running--
		v.gen++
	}
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	<-w.ch
}

// After returns a channel that receives the virtual time once d has
// elapsed. The waiter carries no run token even for registered callers,
// because the caller does not necessarily block on it: registered code
// that wants to select on a timer together with other channels must use
// Gate.Wait, which does the token accounting. A registered goroutine
// that naked-selects on After deadlocks the virtual clock (its token is
// never released, so time cannot advance to fire the timer).
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

// SetDeadlockTimeout adjusts the wall-clock watchdog that fires when
// every registered goroutine is blocked, no waiter is pending, and no
// state change occurs for the given duration — a real deadlock in the
// system under test. Zero disables the watchdog.
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
	if !tokened && v.unregOut > 0 {
		v.unregOut--
	}
	v.gen++
	return w
}

// maybeAdvanceLocked spawns an advancer when the system may be
// quiescent. The advancer is a dedicated short-lived goroutine, never a
// participant, so it can settle and fire without starving its own
// continuation.
func (v *Virtual) maybeAdvanceLocked() {
	if v.advancing || v.running != 0 {
		return
	}
	v.advancing = true
	go v.advanceLoop()
}

func (v *Virtual) advanceLoop() {
	v.mu.Lock()
	for v.running == 0 {
		if v.needSettleLocked() {
			//swaplint:ignore lockcheck settleLocked drops and reacquires v.mu around its yield rounds by design
			if !v.settleLocked() {
				break // a registered goroutine resumed during the settle
			}
		}
		if v.waiters.Len() == 0 {
			if v.blocked+v.blockedIO > 0 {
				v.armWatchdogLocked()
			}
			break
		}
		w := heap.Pop(&v.waiters).(*vwaiter)
		if w.deadline.After(v.now) {
			if vtrace && w.deadline.Sub(v.now) > 100*time.Millisecond {
				fmt.Printf("VTRACE jump %v -> %v (+%v) waiters=%d blocked=%d blockedIO=%d unregOut=%d tokened=%v\n",
					v.now.Format("15:04:05.000"), w.deadline.Format("15:04:05.000"),
					w.deadline.Sub(v.now), v.waiters.Len(), v.blocked, v.blockedIO, v.unregOut, w.tokened)
			}
			v.now = w.deadline
		}
		w.fired = true
		v.gen++
		if w.tokened {
			v.running++
		} else {
			v.unregActive = true
			v.unregOut++
		}
		w.ch <- v.now
	}
	v.advancing = false
	v.mu.Unlock()
}

// needSettleLocked reports whether the next jump must wait for the
// scheduler to quiesce first. Settling is needed whenever goroutines
// may be between states the token accounting cannot see: registered
// goroutines blocked on peers (their waker may have signalled and
// parked already, and the wakee needs CPU to re-acquire its token
// before time moves), or unregistered goroutines using the clock.
func (v *Virtual) needSettleLocked() bool {
	return v.blocked > 0 || v.blockedIO > 0 || v.unregActive || v.onWire > 0
}

// settleLocked yields until the observable state (gen) holds still for
// three consecutive rounds with no run token outstanding. Rounds use
// escalating wall micro-sleeps only while an unregistered goroutine is
// off the heap (unregOut > 0) with registered callers blocked in I/O —
// a real HTTP hand-off needs wall time to come back through netpoll.
// In the transfer steady state (every unregistered actor parked on a
// chunk deadline) plain scheduler yields suffice, which is what keeps a
// multi-thousand-chunk checkpoint replay at microseconds per event.
// Returns false if a registered goroutine re-acquired its token, in
// which case the advance must abort.
func (v *Virtual) settleLocked() bool {
	stable := 0
	last := v.gen
	sleep := 20 * time.Microsecond
	for stable < 3 {
		if v.running > 0 {
			return false
		}
		if hold := v.wireHeldLocked(); hold > 0 {
			// An exchange is on the wire: wait for it to land.
			if v.wireFree == nil {
				v.wireFree = make(chan struct{})
			}
			free := v.wireFree
			v.mu.Unlock()
			t := time.NewTimer(hold)
			select {
			case <-free:
			case <-t.C:
			}
			t.Stop()
			//swaplint:ignore lockcheck reacquisition of the caller-held lock; settleLocked returns with v.mu held
			v.mu.Lock()
			stable = 0
			last = v.gen
			sleep = 20 * time.Microsecond
			continue
		}
		io := v.blockedIO > 0 && (v.unregOut > 0 || time.Now().Before(v.ioGraceUntil))
		v.mu.Unlock()
		if io {
			time.Sleep(sleep)
			if sleep < 500*time.Microsecond {
				sleep *= 2
			}
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
			sleep = 20 * time.Microsecond
		}
	}
	if v.blockedIO == 0 {
		v.unregActive = false
	} else {
		// A wall-stable settle is the best evidence that no unregistered
		// goroutine is about to park: reset the in-flight estimate so a
		// handler that finished its response (fired its last timer and
		// went back to netpoll) does not tax every later jump.
		v.unregOut = 0
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
			v.blocked+v.blockedIO > 0
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
//   - Go spawns a registered goroutine. The child's run token is
//     reserved before the goroutine starts, so there is no window in
//     which the clock could advance past a spawn.
//   - Block(fn) marks the caller as waiting on another registered
//     goroutine (channel receive, WaitGroup.Wait, …) for fn's duration.
//   - BlockIO(fn) marks the caller as waiting on work outside the
//     token system — an HTTP round trip through net/http goroutines.
//   - BlockOn(key, ready, fn) is Block for a wait whose waker calls
//     Wake(key): the waker hands the token back itself, with no window
//     in which the clock could advance past the hand-off.
//   - Wait(d, done...) is the timer select: it parks on the clock like
//     Sleep but also wakes on any done channel, returning -1 for the
//     timer or the index of the channel that fired.
//
// Rules: a registered goroutine must not block on anything except via
// Sleep, Block, BlockOn, BlockIO, or Wait — in particular it must not
// naked-select on After. Violations freeze the virtual clock (the Go
// test timeout's stack dump shows the offender); a system-under-test
// deadlock while the clock is quiescent is caught by the watchdog
// panic instead.
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

// Run registers the calling goroutine for the duration of fn.
func (g *Gate) Run(fn func()) {
	g.Enter()
	defer g.Exit()
	fn()
}

// Go runs fn on a new registered goroutine. The child's token is
// reserved under the clock lock before the goroutine is spawned, so the
// clock cannot advance between the spawn and the child's first
// instruction.
func (g *Gate) Go(fn func()) {
	if g.v == nil {
		go fn()
		return
	}
	v := g.v
	v.mu.Lock()
	v.running++
	v.gen++
	v.mu.Unlock()
	go func() {
		id := gid()
		v.mu.Lock()
		v.reg[id]++
		v.mu.Unlock()
		defer func() {
			v.mu.Lock()
			v.reg[id]--
			if v.reg[id] <= 0 {
				delete(v.reg, id)
			}
			v.running--
			v.gen++
			v.maybeAdvanceLocked()
			v.mu.Unlock()
		}()
		fn()
	}()
}

// Block runs fn with the caller's run token released, marking it as
// waiting on another registered goroutine. Unregistered callers just
// run fn.
func (g *Gate) Block(fn func()) { g.block(fn, false) }

// BlockIO runs fn with the caller's run token released, marking it as
// waiting on I/O outside the token system (an HTTP round trip whose
// serving goroutines are unregistered). The advancer settles with wall
// micro-sleeps while any BlockIO is outstanding.
func (g *Gate) BlockIO(fn func()) { g.block(fn, true) }

func (g *Gate) block(fn func(), io bool) {
	if g.v == nil {
		fn()
		return
	}
	id := gid()
	v := g.v
	v.mu.Lock()
	if _, ok := v.reg[id]; !ok {
		v.mu.Unlock()
		fn()
		return
	}
	v.running--
	if io {
		v.blockedIO++
		v.ioGraceUntil = time.Now().Add(ioGrace)
	} else {
		v.blocked++
	}
	v.gen++
	v.maybeAdvanceLocked()
	v.mu.Unlock()

	fn()

	v.mu.Lock()
	if io {
		v.blockedIO--
		// The response hand-off back toward whoever is awaiting this
		// round trip (another BlockIO caller, an unregistered proxy
		// handler) is still in flight through netpoll.
		v.ioGraceUntil = time.Now().Add(ioGrace)
	} else {
		v.blocked--
	}
	v.running++
	v.gen++
	v.mu.Unlock()
}

// parkRec is one registered goroutine blocked in Gate.BlockOn: its
// wait's ready check, and whether Gate.Wake already handed its run
// token back.
type parkRec struct {
	ready func() bool
	woken bool
}

// BlockOn is Block for a wait a peer ends by calling Wake(key): fn is
// the blocking receive, ready reports (without blocking or taking locks
// the waker may hold while calling Wake) whether it would return at
// once. A ready wait keeps the caller's run token; otherwise the caller
// parks on key and Wake grants its token back under the clock lock, so
// virtual time cannot advance between the hand-off and the wakee
// running again — a plain Block leaves that window to the settle pass,
// which a descheduled wakee can outlast.
func (g *Gate) BlockOn(key any, ready func() bool, fn func()) {
	if g.v == nil {
		fn()
		return
	}
	id := gid()
	v := g.v
	v.mu.Lock()
	if _, ok := v.reg[id]; !ok || ready() {
		v.mu.Unlock()
		fn()
		return
	}
	rec := &parkRec{ready: ready}
	v.parked[key] = append(v.parked[key], rec)
	v.running--
	v.blocked++
	v.gen++
	v.maybeAdvanceLocked()
	v.mu.Unlock()

	fn()

	v.mu.Lock()
	if !rec.woken {
		recs := v.parked[key]
		for i, r := range recs {
			if r == rec {
				recs = append(recs[:i], recs[i+1:]...)
				break
			}
		}
		if len(recs) == 0 {
			delete(v.parked, key)
		} else {
			v.parked[key] = recs
		}
		v.blocked--
		v.running++
	}
	v.gen++
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
	recs := v.parked[key]
	kept := recs[:0]
	for _, r := range recs {
		if !r.ready() {
			kept = append(kept, r)
			continue
		}
		r.woken = true
		v.blocked--
		v.running++
		v.gen++
	}
	if len(kept) == 0 {
		delete(v.parked, key)
	} else {
		v.parked[key] = kept
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
		v.mu.Lock()
		if !w.fired {
			heap.Remove(&v.waiters, w.index)
			if w.tokened {
				v.running++
			} else {
				// An unregistered waiter leaves the heap alive: it is in
				// flight again as far as the settle pass can tell.
				v.unregOut++
			}
			v.gen++
		}
		v.mu.Unlock()
	}
	return idx
}

// waitFallback is Wait for non-virtual clocks: a plain select between
// the clock timer and the done channels.
func waitFallback(clock Clock, d time.Duration, done []<-chan struct{}) int {
	return selectTimer(clock.After(d), done)
}

// selectTimer selects between a timer channel and up to N done
// channels, returning -1 for the timer and the done index otherwise.
func selectTimer(timer <-chan time.Time, done []<-chan struct{}) int {
	switch len(done) {
	case 0:
		<-timer
		return -1
	case 1:
		select {
		case <-timer:
			return -1
		case <-done[0]:
			return 0
		}
	case 2:
		select {
		case <-timer:
			return -1
		case <-done[0]:
			return 0
		case <-done[1]:
			return 1
		}
	}
	cases := make([]reflect.SelectCase, len(done)+1)
	cases[0] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer)}
	for i, ch := range done {
		cases[i+1] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)}
	}
	chosen, _, _ := reflect.Select(cases)
	return chosen - 1
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
