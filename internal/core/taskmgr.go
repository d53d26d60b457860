package core

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"swapservellm/internal/gpu"
	"swapservellm/internal/obs"
	"swapservellm/internal/simclock"
)

// Evictor reclaims GPU memory by swapping out a running backend. The
// engine controller implements it; the task manager invokes it when a
// reservation cannot be satisfied from free memory (§3.5).
type Evictor interface {
	// EvictOne selects the best preemption candidate on the given device
	// (excluding the named backends) and swaps it out, returning false when
	// nothing is evictable.
	EvictOne(ctx context.Context, gpuID int, exclude map[string]bool) (freed int64, ok bool)
}

// Reservation is a claim on GPU memory with scoped acquire-release
// semantics (§6). Reserve hands it out granted: the holder performs its
// swap-in, the actual device allocation replaces the claim, and Release
// returns the claimed headroom to the pool. ReserveAsync hands it out
// queued: it accrues freed capacity in FIFO order until Done closes.
type Reservation struct {
	tm *TaskManager
	p  *pending

	mu       sync.Mutex
	released bool
}

// Done is closed once the reservation has been fully granted.
func (r *Reservation) Done() <-chan struct{} { return r.p.granted }

// Release returns whatever the reservation holds — the full claim when
// granted, the partial per-device claims otherwise, removing it from the
// queue — and re-runs the grant loop. Safe to call once the restore's
// device allocation has landed (or after a failed swap-in). Idempotent.
func (r *Reservation) Release() {
	r.mu.Lock()
	if r.released {
		r.mu.Unlock()
		return
	}
	r.released = true
	r.mu.Unlock()

	tm, p := r.tm, r.p
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if !isClosed(p.granted) {
		if p.index >= 0 && p.index < len(tm.queue) && tm.queue[p.index] == p {
			heap.Remove(&tm.queue, p.index)
		}
	}
	// A granted claim holds p.bytes on every device; a queued one holds
	// whatever the grant loop carved out so far.
	tm.returnClaimsLocked(p)
	tm.grantLocked()
}

// pending is one queued reservation request.
type pending struct {
	gpus    []int
	bytes   int64
	owner   string
	seq     int64
	granted chan struct{}
	index   int

	// claimed tracks, per device, the bytes the grant loop has already
	// carved out of the free pool for this reservation. The queue head
	// claims incrementally as memory frees — a pipelined swap-out
	// releases capacity chunk by chunk, and each chunk lands here before
	// a later request can steal it. The reservation is granted when
	// claimed reaches bytes on every device; a cancelled or released
	// reservation returns whatever it had claimed.
	claimed map[int]int64
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
func (tm *TaskManager) Reserve(ctx context.Context, gpus []int, bytes int64, owner string) (res *Reservation, err error) {
	ctx, span := obs.Start(ctx, "reserve",
		obs.String("owner", owner), obs.Int64("bytes", bytes))
	defer func() { span.EndErr(err) }()
	r, err := tm.enqueue(gpus, bytes, owner)
	if err != nil {
		return nil, err
	}

	// A waiter that was not granted immediately drives preemption for
	// itself once it reaches the head of the queue; the evictor
	// serializes actual evictions.
	gate := simclock.GateFor(tm.clock)
	if !isClosed(r.p.granted) && tm.evictor != nil {
		gate.Go(func() { tm.reclaim(ctx, r.p) })
	}

	granted := false
	gate.Block(func() {
		select {
		case <-r.p.granted:
			granted = true
		case <-ctx.Done():
		}
	})
	if granted {
		return r, nil
	}
	// Cancelled: hand back the partial claims, or the full claim if the
	// grant raced the cancellation.
	r.Release()
	return nil, ctx.Err()
}

// ReserveAsync enqueues a reservation and returns immediately with a
// handle; no preemption loop is spawned. The claim participates in the
// normal FIFO grant order and accrues freed capacity incrementally like
// any other waiter; Done reports the full grant. The caller must Release
// it exactly as with Reserve. ctx carries the active trace span (the
// enqueue is recorded as an event on it); the handle itself does not
// block, so cancellation is the caller's to honor via Release.
func (tm *TaskManager) ReserveAsync(ctx context.Context, gpus []int, bytes int64, owner string) (*Reservation, error) {
	obs.AddEvent(ctx, "reserve.enqueue",
		obs.String("owner", owner), obs.Int64("bytes", bytes))
	return tm.enqueue(gpus, bytes, owner)
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
	p := &pending{gpus: gpus, bytes: bytes, owner: owner, granted: make(chan struct{})}
	tm.mu.Lock()
	tm.seq++
	p.seq = tm.seq
	heap.Push(&tm.queue, p)
	tm.grantLocked()
	tm.mu.Unlock()
	return &Reservation{tm: tm, p: p}, nil
}

// normalizeGPUs sorts and deduplicates device indices (ordered
// acquisition prevents deadlock between concurrent multi-GPU claims).
func normalizeGPUs(gpus []int) []int {
	if len(gpus) == 0 {
		return []int{0}
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
	}
}

// claimHeadLocked claims whatever headroom is available toward p's
// remaining need on each device, reporting whether p is now fully
// claimed. Caller holds tm.mu.
func (tm *TaskManager) claimHeadLocked(p *pending) bool {
	done := true
	for _, id := range p.gpus {
		need := p.bytes - p.claimed[id]
		if need <= 0 {
			continue
		}
		avail := tm.availableLocked(id)
		if avail > need {
			avail = need
		}
		if avail > 0 {
			if p.claimed == nil {
				p.claimed = make(map[int]int64)
			}
			p.claimed[id] += avail
			tm.reserved[id] += avail
		}
		if p.claimed[id] < p.bytes {
			done = false
		}
	}
	return done
}

// returnClaimsLocked hands back everything a reservation has claimed:
// the full amount once granted, the partial claims while queued. Caller
// holds tm.mu.
func (tm *TaskManager) returnClaimsLocked(p *pending) {
	for id, c := range p.claimed {
		tm.reserved[id] -= c
		if tm.reserved[id] < 0 {
			tm.reserved[id] = 0
		}
	}
	p.claimed = nil
}

// isClosed reports whether a grant channel has been closed.
func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// reclaim drives the demand-aware preemption loop for one blocked
// reservation: once the reservation reaches the head of the FIFO queue,
// evict the policy's best candidate, re-check, and repeat until granted
// or cancelled (§3.5). Non-head waiters idle — the head's reclaim makes
// progress for everyone.
func (tm *TaskManager) reclaim(ctx context.Context, p *pending) {
	exclude := map[string]bool{p.owner: true}
	gate := simclock.GateFor(tm.clock)
	backoff := func() bool {
		// Simulated-time backoff, cut short by a grant or cancellation.
		return gate.Wait(20*time.Millisecond, p.granted, ctx.Done()) < 0
	}
	for {
		select {
		case <-p.granted:
			return
		case <-ctx.Done():
			return
		default:
		}

		// Only the queue head drives eviction (strict FIFO grants).
		tm.mu.Lock()
		isHead := len(tm.queue) > 0 && tm.queue[0] == p
		shortID := -1
		if isHead {
			for _, id := range p.gpus {
				// Incremental claims shrink the outstanding need.
				if tm.availableLocked(id) < p.bytes-p.claimed[id] {
					shortID = id
					break
				}
			}
			if shortID == -1 {
				tm.grantLocked()
			}
		}
		tm.mu.Unlock()

		if !isHead || shortID == -1 {
			if !backoff() {
				return
			}
			continue
		}

		if _, ok := tm.evictor.EvictOne(ctx, shortID, exclude); !ok {
			// Nothing evictable right now (candidates busy or already
			// swapping): retry after a short simulated backoff.
			if !backoff() {
				return
			}
			continue
		}
		tm.mu.Lock()
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
