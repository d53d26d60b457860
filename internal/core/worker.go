package core

import (
	"bytes"
	"fmt"
	"net/http"

	"swapservellm/internal/metrics"
	"swapservellm/internal/simclock"
)

// worker is the per-model worker of §3.1 ③: it polls the backend's queue,
// coordinates swap-ins with the scheduler when the backend is not
// running, and forwards requests to the inference engine, relaying
// responses to the client without extra processing (§3.3 ⑩).
type worker struct {
	b     *Backend
	sched *Scheduler
	clock simclock.Clock
	reg   *metrics.Registry

	client *http.Client
	stop   chan struct{}
	done   chan struct{}
}

// newWorker builds a worker for b.
func newWorker(b *Backend, sched *Scheduler, clock simclock.Clock, reg *metrics.Registry) *worker {
	return &worker{
		b:      b,
		sched:  sched,
		clock:  clock,
		reg:    reg,
		client: &http.Client{Transport: simclock.Transport(clock)},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// run is the worker loop; terminate with close(w.stop). The queue wait
// runs under the clock gate's BlockOn so a Virtual clock knows the worker
// is idle rather than computing, and the router's Wake after enqueueing
// hands the worker its run token before the clock can move on.
func (w *worker) run() {
	defer close(w.done)
	gate := simclock.GateFor(w.clock)
	for {
		var item *queuedRequest
		stopped := false
		queue := w.b.queue
		ready := func() bool { return w.b.queued.Load() > 0 }
		gate.BlockOn(queue, ready, func() {
			select {
			case <-w.stop:
				stopped = true
			case item = <-queue:
			}
		})
		if stopped {
			return
		}
		w.b.queued.Add(-1)
		w.b.pending.Add(1)
		// Verify the client is still connected before doing any work
		// (§4.1: cancellations and timeouts are handled here).
		if item.ctx.Err() != nil {
			w.answer(item, forwardResult{err: item.ctx.Err()})
			w.retire(item)
			continue
		}
		if w.b.State() != BackendRunning {
			if err := w.sched.EnsureRunning(item.ctx, w.b); err != nil {
				w.answer(item, forwardResult{err: err})
				w.retire(item)
				continue
			}
		}
		// Forward concurrently so the worker keeps draining the queue
		// while long generations stream.
		gate.Go(func() { w.forward(item) })
	}
}

// forward sends the request to the engine and hands the live response to
// the router goroutine. The read side of the eviction lock guarantees the
// backend cannot be swapped out between the running-state check and the
// in-flight accounting (§3.5).
func (w *worker) forward(item *queuedRequest) {
	defer w.retire(item)
	gate := simclock.GateFor(w.clock)
	const maxAttempts = 3
	for attempt := 0; attempt < maxAttempts; attempt++ {
		// A swap-out may hold the write lock while it sleeps on the
		// clock; acquiring through the gate keeps virtual time moving.
		gate.Block(w.b.evictMu.RLock)
		if w.b.State() != BackendRunning {
			w.b.evictMu.RUnlock()
			// The backend was preempted between dequeue and forward;
			// swap it back in and retry.
			if err := w.sched.EnsureRunning(item.ctx, w.b); err != nil {
				w.answer(item, forwardResult{err: err})
				return
			}
			continue
		}
		w.b.incActive()
		w.b.evictMu.RUnlock()

		w.relay(item)
		w.b.decActive()
		w.b.lastFinished.Store(w.clock.Now().UnixNano())
		// The served request mutated the engine's dynamic GPU state (KV
		// cache), so the next checkpoint must re-key those chunks instead
		// of reusing the stale deduplicated content.
		w.sched.ctrl.rt.Driver().MarkDirty(w.b.ctr.ID())
		return
	}
	w.answer(item, forwardResult{err: fmt.Errorf("core: backend %s kept being preempted", w.b.name)})
}

// answer hands the router its result, waking it at once.
func (w *worker) answer(item *queuedRequest, res forwardResult) {
	item.result = res
	close(item.answered)
	simclock.GateFor(w.clock).Wake(item)
}

// retire ends the worker's accounting for a dequeued request and
// releases the router waiting to return the response.
func (w *worker) retire(item *queuedRequest) {
	w.b.pending.Add(-1)
	close(item.retired)
	simclock.GateFor(w.clock).Wake(item)
}

// relay performs the engine HTTP call and keeps the in-flight accounting
// alive until the router finishes streaming the response to the client.
// Under a Virtual clock the engine answers in-process on a registered
// goroutine (simclock.Listen), and the stream wait is a BlockOn the
// router's Wake ends, so the clock advances only while the engine
// generates — which is exactly what simulates generation latency.
func (w *worker) relay(item *queuedRequest) {
	url := w.b.ctr.BaseURL() + item.path
	req, err := http.NewRequestWithContext(item.ctx, http.MethodPost, url, bytes.NewReader(item.body))
	if err != nil {
		w.answer(item, forwardResult{err: err})
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		w.answer(item, forwardResult{err: err})
		return
	}
	w.answer(item, forwardResult{resp: resp})
	// Remain "in flight" until the response body has been fully relayed,
	// so eviction drains genuinely live streams.
	relayed := func() bool { return isClosed(item.done) || item.ctx.Err() != nil }
	simclock.GateFor(w.clock).BlockOn(item, relayed, func() {
		select {
		case <-item.done:
		case <-item.ctx.Done():
		}
	})
}
