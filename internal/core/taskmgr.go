package core

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swapservellm/internal/gpu"
	"swapservellm/internal/obs"
	"swapservellm/internal/simclock"
)

// Evictor reclaims GPU memory by swapping out a running backend. The
// engine controller implements it; the task manager invokes it when a
// reservation cannot be satisfied from free memory (§3.5).
type Evictor interface {
	// EvictOne waits for the device's eviction turn, then — unless
	// needed (when non-nil) reports the memory is no longer wanted —
	// selects the best preemption candidate on the device other than the
	// backend named exclude ("" excludes none) and swaps it out,
	// returning its name. It returns false when nothing was evicted.
	EvictOne(ctx context.Context, gpuID int, exclude string, needed func() bool) (victim string, ok bool)
}

// Reservation is a claim on GPU memory with scoped acquire-release
// semantics (§6). It queues in FIFO order and accrues freed capacity
// chunk by chunk until it is fully granted; the restore it feeds takes
// each chunk's bytes out of it (Take), and Release returns whatever
// headroom is left. Its owner drives it from one goroutine at a time:
// Wait and Take reuse the reservation's ready checks.
type Reservation struct {
	tm      *TaskManager
	p       *pending
	release sync.Once
	pend    pending // p's storage: one allocation holds both
}

// Wait blocks until the reservation is fully granted or ctx ends.
func (r *Reservation) Wait(ctx context.Context) (err error) {
	p := r.p
	p.waitDone = ctx.Done()
	if p.waitReady == nil {
		p.waitReady = func() bool { return simclock.Closed(p.granted) || simclock.Closed(p.waitDone) }
	}
	simclock.GateFor(r.tm.clock).BlockOn(p.granted, p.waitReady, func() {
		select {
		case <-p.granted:
		case <-ctx.Done():
			err = ctx.Err()
		}
	})
	return err
}

// Take implements cudackpt.Claim: it waits until the reservation holds
// bytes of unallocated headroom on gpuID, then runs the restore's
// allocation and converts that headroom into the allocation under one
// lock, so no other claim ever sees the bytes as available. A fully
// granted reservation never grows again: a restore needing more than it
// holds allocates the remainder from free memory.
func (r *Reservation) Take(ctx context.Context, gpuID int, bytes int64, alloc func() error) error {
	tm, p := r.tm, r.p
	dc := p.dev(gpuID)
	for {
		tm.mu.Lock()
		var held int64
		if dc != nil {
			held = dc.claimed - dc.used
		}
		if held >= bytes || simclock.Closed(p.granted) {
			err := alloc()
			if err == nil && dc != nil {
				dc.used += min(bytes, held)
				tm.reserved[gpuID] -= min(bytes, held)
			}
			tm.mu.Unlock()
			return err
		}
		p.takeSeen = p.growth.Load()
		tm.mu.Unlock()
		p.takeDone = ctx.Done()
		if p.takeReady == nil {
			// A growth signal a parked Take receives directly never
			// shows in len(p.grew), so readiness is read off the growth
			// count.
			p.takeReady = func() bool {
				return p.growth.Load() != p.takeSeen || simclock.Closed(p.granted) || simclock.Closed(p.takeDone)
			}
		}
		var err error
		simclock.GateFor(tm.clock).BlockOn(p.grew, p.takeReady, func() {
			select {
			case <-p.grew:
			case <-p.granted:
			case <-ctx.Done():
				err = ctx.Err()
			}
		})
		if err != nil {
			return err
		}
	}
}

// Release hands back the headroom the reservation holds — the full claim
// when granted, the partial claims otherwise — less what its restore
// allocated, and re-runs the grant loop. Releasing a claim before its
// grant also stops the evictions it drives and waits for the one in
// flight to settle. Call it once the swap-in settled. Idempotent.
func (r *Reservation) Release() {
	r.release.Do(func() {
		tm, p := r.tm, r.p
		tm.mu.Lock()
		stop := p.reclaimDone != nil && !simclock.Closed(p.granted)
		if !simclock.Closed(p.granted) && p.index >= 0 && p.index < len(tm.queue) && tm.queue[p.index] == p {
			heap.Remove(&tm.queue, p.index)
		}
		p.span.End()
		tm.returnClaimsLocked(p)
		tm.grantLocked()
		tm.mu.Unlock()
		if stop {
			// Stop the preemption loop and wait for it to exit.
			p.cancelReclaim()
			done := p.reclaimDone
			simclock.GateFor(tm.clock).BlockOn(done, func() bool { return simclock.Closed(done) }, func() { <-done })
		}
	})
}

// victims returns the backends the reservation's reclaim evicted.
func (r *Reservation) victims() []string {
	r.tm.mu.Lock()
	defer r.tm.mu.Unlock()
	return append([]string(nil), r.p.victims...)
}

// evicted reports whether the reservation's reclaim evicted anything.
func (r *Reservation) evicted() bool {
	r.tm.mu.Lock()
	defer r.tm.mu.Unlock()
	return len(r.p.victims) > 0
}

// pending is one queued reservation request.
type pending struct {
	// devs holds the claim's state on each of its devices, in device
	// order; one backs it for a single-device claim.
	devs    []devClaim
	one     [1]devClaim
	bytes   int64
	owner   string
	seq     int64
	granted chan struct{}
	index   int

	grew    chan struct{} // signalled whenever the claim grows
	growth  atomic.Int64  // counts the claim's growths, for Take's ready check
	span    *obs.Span     // "reserve", open until the grant or release
	victims []string      // backends reclaim evicted for this claim

	// The ready checks of Wait and Take, each built at its first park
	// and reused by every later one, with what they read: the done
	// channel of the caller's context, and the growth count Take saw.
	waitReady, takeReady func() bool
	waitDone, takeDone   <-chan struct{}
	takeSeen             int64

	// The preemption loop of a claim that did not fit at once (nil
	// otherwise): cancelReclaim stops it, and reclaimDone closes when
	// it has exited.
	cancelReclaim context.CancelFunc
	reclaimDone   chan struct{}
}

// devClaim is a reservation's state on one device. claimed is what the
// grant loop has already carved out of the free pool for it: the queue
// head claims incrementally as memory frees (a pipelined swap-out
// releases capacity chunk by chunk, and each chunk lands here before a
// later request can steal it), and the reservation is granted when
// claimed reaches bytes on every device. used is the claimed bytes the
// restore turned into device allocations: claimed-used is the headroom
// the reservation holds.
type devClaim struct {
	gpu     int
	claimed int64
	used    int64
}

// dev returns the claim's state on gpuID, or nil when the claim does
// not span it.
func (p *pending) dev(gpuID int) *devClaim {
	for i := range p.devs {
		if p.devs[i].gpu == gpuID {
			return &p.devs[i]
		}
	}
	return nil
}

// pendingHeap orders reservations by arrival (FIFO grant order).
type pendingHeap []*pending

func (h pendingHeap) Len() int            { return len(h) }
func (h pendingHeap) Less(i, j int) bool  { return h[i].seq < h[j].seq }
func (h pendingHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *pendingHeap) Push(x interface{}) { p := x.(*pending); p.index = len(*h); *h = append(*h, p) }
func (h *pendingHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

// TaskManager tracks GPU memory reservations across the topology with a
// priority queue (§3.4), observes utilization via the GPU monitor (§3.1
// ⑥), and reclaims memory through the evictor when requests cannot be
// satisfied (⑦).
type TaskManager struct {
	clock   simclock.Clock
	topo    *gpu.Topology
	monitor *gpu.Monitor
	evictor Evictor

	mu       sync.Mutex
	reserved map[int]int64 // gpuID -> granted-but-unallocated headroom
	queue    pendingHeap
	seq      int64
}

// NewTaskManager builds a task manager over the topology. Set the evictor
// with SetEvictor before reservations can trigger preemption.
func NewTaskManager(clock simclock.Clock, topo *gpu.Topology) *TaskManager {
	return &TaskManager{
		clock:    clock,
		topo:     topo,
		monitor:  gpu.NewMonitor(topo),
		reserved: make(map[int]int64),
	}
}

// SetEvictor installs the preemption executor (the engine controller).
func (tm *TaskManager) SetEvictor(e Evictor) { tm.evictor = e }

// Monitor returns the GPU monitor.
func (tm *TaskManager) Monitor() *gpu.Monitor { return tm.monitor }

// availableLocked returns the grantable bytes on a device: free memory
// minus already-granted headroom. Caller holds tm.mu.
func (tm *TaskManager) availableLocked(gpuID int) int64 {
	d, err := tm.topo.Device(gpuID)
	if err != nil {
		return 0
	}
	return d.Free() - tm.reserved[gpuID]
}

// Available returns the currently grantable bytes on a device.
func (tm *TaskManager) Available(gpuID int) int64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.availableLocked(gpuID)
}

// Reserved returns the granted-but-unallocated headroom on a device.
func (tm *TaskManager) Reserved(gpuID int) int64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.reserved[gpuID]
}

// PendingCount returns the number of queued reservations.
func (tm *TaskManager) PendingCount() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.queue)
}

// Reserve claims bytes on every listed device (the multi-GPU scoped
// acquisition of §6; devices are processed as one atomic claim). It
// blocks — preempting running backends when needed — until the claim is
// granted, the context is cancelled, or the claim is impossible.
// owner names the requesting backend so preemption excludes it.
func (tm *TaskManager) Reserve(ctx context.Context, gpus []int, bytes int64, owner string) (*Reservation, error) {
	r, err := tm.enqueue(gpus, bytes, owner)
	if err != nil {
		return nil, err
	}
	r.track(ctx)
	if err := r.Wait(ctx); err != nil {
		// Cancelled: hand back the partial claims, or the full claim if
		// the grant raced the cancellation.
		r.Release()
		return nil, err
	}
	return r, nil
}

// enqueue validates a claim, queues it in FIFO order, and runs the
// grant loop once, so a claim that fits is granted before it returns.
func (tm *TaskManager) enqueue(gpus []int, bytes int64, owner string) (*Reservation, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("core: negative reservation %d", bytes)
	}
	gpus = normalizeGPUs(gpus)
	for _, id := range gpus {
		d, err := tm.topo.Device(id)
		if err != nil {
			return nil, err
		}
		if bytes > d.Total() {
			return nil, fmt.Errorf("%w: need %d on gpu %d with capacity %d",
				ErrNoCapacity, bytes, id, d.Total())
		}
	}
	r := &Reservation{tm: tm}
	p := &r.pend
	r.p = p
	p.bytes, p.owner = bytes, owner
	p.granted, p.grew = make(chan struct{}), make(chan struct{}, 1)
	p.devs = p.one[:0]
	for _, id := range gpus {
		p.devs = append(p.devs, devClaim{gpu: id})
	}
	tm.mu.Lock()
	tm.seq++
	p.seq = tm.seq
	heap.Push(&tm.queue, p)
	tm.grantLocked()
	tm.mu.Unlock()
	return r, nil
}

// track opens the reservation's "reserve" span on ctx, which ends at the
// full grant (or release), and starts the preemption loop for a claim
// that did not fit at once: the evictions it drives nest in the span.
func (r *Reservation) track(ctx context.Context) {
	tm, p := r.tm, r.p
	ctx, span := obs.Start(ctx, "reserve",
		obs.String("owner", p.owner), obs.Int64("bytes", p.bytes))
	tm.mu.Lock()
	granted := simclock.Closed(p.granted)
	if !granted {
		p.span = span
	}
	tm.mu.Unlock()
	if granted {
		span.End()
		return
	}
	// A waiter that was not granted immediately drives preemption for
	// itself once it reaches the head of the queue; the evictor
	// serializes actual evictions. Releasing the claim before its grant
	// stops the loop.
	if tm.evictor != nil {
		rctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		tm.mu.Lock()
		p.cancelReclaim, p.reclaimDone = cancel, done
		tm.mu.Unlock()
		simclock.GateFor(tm.clock).Go(func() {
			defer close(done)
			defer cancel()
			tm.reclaim(rctx, p)
		})
	}
}

// normalizeGPUs sorts and deduplicates device indices (ordered
// acquisition prevents deadlock between concurrent multi-GPU claims).
// A slice already sorted and free of duplicates, such as a backend's,
// is returned as is.
func normalizeGPUs(gpus []int) []int {
	if len(gpus) == 0 {
		return []int{0}
	}
	normal := true
	for i := 1; i < len(gpus) && normal; i++ {
		normal = gpus[i-1] < gpus[i]
	}
	if normal {
		return gpus
	}
	out := append([]int(nil), gpus...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// grantLocked grants queued reservations in FIFO order. Strict ordering
// avoids starving large requests (§3.4's LLaMA 70B example queues behind
// nothing but gets the next grant once memory frees). The head claims
// incrementally: any positive headroom on a device it still needs is
// carved out immediately, so capacity freed chunk-by-chunk by a
// pipelined swap-out accrues to the oldest waiter instead of sitting
// exposed until the full amount fits. The grant completes — and the next
// waiter gets its turn — once every device is fully claimed. Caller
// holds tm.mu.
func (tm *TaskManager) grantLocked() {
	for len(tm.queue) > 0 {
		head := tm.queue[0]
		if !tm.claimHeadLocked(head) {
			return
		}
		heap.Pop(&tm.queue)
		close(head.granted)
		// Wake the grant's waiters: Wait parks on granted, a restore's
		// Take on grew (it also returns on the grant).
		gate := simclock.GateFor(tm.clock)
		gate.Wake(head.granted)
		gate.Wake(head.grew)
		head.span.End()
	}
}

// claimHeadLocked claims whatever headroom is available toward p's
// remaining need on each device, reporting whether p is now fully
// claimed. Caller holds tm.mu.
func (tm *TaskManager) claimHeadLocked(p *pending) bool {
	done := true
	for i := range p.devs {
		dc := &p.devs[i]
		need := p.bytes - dc.claimed
		if need <= 0 {
			continue
		}
		avail := tm.availableLocked(dc.gpu)
		if avail > need {
			avail = need
		}
		if avail > 0 {
			dc.claimed += avail
			tm.reserved[dc.gpu] += avail
			p.growth.Add(1)
			select {
			case p.grew <- struct{}{}:
			default:
			}
			simclock.GateFor(tm.clock).Wake(p.grew)
		}
		if dc.claimed < p.bytes {
			done = false
		}
	}
	return done
}

// returnClaimsLocked hands back the headroom a reservation holds: what
// it claimed (the full amount once granted, the partial claims while
// queued) less what its restore allocated. Caller holds tm.mu.
func (tm *TaskManager) returnClaimsLocked(p *pending) {
	for i := range p.devs {
		dc := &p.devs[i]
		if dc.claimed == 0 {
			continue
		}
		tm.reserved[dc.gpu] -= dc.claimed - dc.used
		if tm.reserved[dc.gpu] < 0 {
			tm.reserved[dc.gpu] = 0
		}
		dc.claimed = 0
	}
}

// reclaim drives the demand-aware preemption loop for one blocked
// reservation: once the reservation reaches the head of the FIFO queue,
// evict the policy's best candidate, re-check, and repeat until granted
// or cancelled (§3.5). Non-head waiters idle — the head's reclaim makes
// progress for everyone.
func (tm *TaskManager) reclaim(ctx context.Context, p *pending) {
	gate := simclock.GateFor(tm.clock)
	backoff := func() bool {
		// Simulated-time backoff, cut short by a grant or cancellation.
		return gate.Wait(20*time.Millisecond, p.granted, ctx.Done()) < 0
	}
	for {
		// Err, not a select on Done: a loop that never backs off never
		// makes ctx's done channel.
		if simclock.Closed(p.granted) || ctx.Err() != nil {
			return
		}

		// Only the queue head drives eviction (strict FIFO grants).
		tm.mu.Lock()
		isHead := len(tm.queue) > 0 && tm.queue[0] == p
		var short *devClaim
		if isHead {
			for i := range p.devs {
				// Incremental claims shrink the outstanding need.
				if dc := &p.devs[i]; tm.availableLocked(dc.gpu) < p.bytes-dc.claimed {
					short = dc
					break
				}
			}
			if short == nil {
				tm.grantLocked()
			}
		}
		tm.mu.Unlock()

		if short == nil {
			if !backoff() {
				return
			}
			continue
		}

		// The eviction turn may come after the claim was filled by
		// memory another eviction freed: re-check before evicting.
		needed := func() bool {
			tm.mu.Lock()
			defer tm.mu.Unlock()
			return tm.availableLocked(short.gpu) < p.bytes-short.claimed
		}
		victim, ok := tm.evictor.EvictOne(ctx, short.gpu, p.owner, needed)
		if !ok {
			// Nothing evictable right now (candidates busy or already
			// swapping): retry after a short simulated backoff.
			if !backoff() {
				return
			}
			continue
		}
		tm.mu.Lock()
		p.victims = append(p.victims, victim)
		tm.grantLocked()
		tm.mu.Unlock()
	}
}

// NotifyFreed re-runs the grant loop after memory was freed outside the
// reservation system (a swap-out or container stop).
func (tm *TaskManager) NotifyFreed() {
	tm.mu.Lock()
	tm.grantLocked()
	tm.mu.Unlock()
}
