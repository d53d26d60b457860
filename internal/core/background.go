package core

import (
	"context"
	"fmt"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/simclock"
)

// startLoops starts the node's background policies, each a sweep on its
// own simclock.Every loop; Shutdown stops them in start order.
//
//   - The reaper reclaims idle backends (Ollama's keep_alive, §2.3,
//     generalised to every engine through a sched.TTLPolicy).
//   - The prefetcher swaps backends in ahead of the demand the node's
//     predictor forecasts (§2.1).
//   - The GPU monitor samples every device's memory and compute
//     utilization (§3.2).
func (s *Server) startLoops() {
	every := func(interval time.Duration, sweep func()) {
		s.loops = append(s.loops, simclock.Every(s.clock, interval, sweep))
	}
	// The reaper runs when a TTL policy is installed (keep_alive_sec or
	// Options.TTL).
	if s.ttl != nil {
		every(max(s.cfg.KeepAlive()/4, time.Second), s.reapSweep)
	}
	if s.cfg.Global.Prefetch {
		every(250*time.Millisecond, s.prefetchSweep)
	}
	if sec := s.cfg.Global.GPUMonitorSec; sec > 0 {
		every(time.Duration(sec*float64(time.Second)), s.sampleGPUs)
	}
}

// reapSweep swaps out every running backend the TTL policy judges idle
// for too long and which has no queued or in-flight work.
func (s *Server) reapSweep() {
	now := s.clock.Now()
	for _, b := range s.Backends() {
		if b.State() != BackendRunning || b.keepWarm {
			continue
		}
		if b.QueueLen() > 0 || b.Pending() > 0 || b.Active() > 0 {
			continue
		}
		// Idle time runs from the latest of: the last request arrival,
		// the moment the backend last became servable, and the last
		// completed request.
		idleSince := b.LastAccessed()
		for _, ns := range []int64{b.lastReady.Load(), b.lastFinished.Load()} {
			if at := time.Unix(0, ns); at.After(idleSince) {
				idleSince = at
			}
		}
		evict := s.ttl.ShouldEvict(b.name, now.Sub(idleSince), now)
		// Chaos: a fired sched.evict inverts the decision — a premature
		// reclaim or a leaked residency, depending on which way it flips.
		// Only the idle-time judgement is invertible; busy backends were
		// already excluded above.
		if out := s.chaosInj.At(chaos.SiteSchedEvict); out.Err != nil {
			evict = !evict
		}
		if !evict {
			continue
		}
		// Best effort: a losing race with an arriving request just means
		// the swap-out fails its state check or the next request swaps
		// the backend back in.
		if err := s.ctrl.SwapOut(context.Background(), b); err == nil {
			s.reg.Counter("idle_reaps").Inc()
			s.ttl.NoteEvict(b.name, now)
		}
	}
}

// observeArrival records a request arrival for b at t: the backend's
// last-accessed time, and, when that advanced, the node's demand
// predictor.
func (s *Server) observeArrival(b *Backend, t time.Time) {
	if b.touch(t) {
		s.demand.Observe(b.name, t)
	}
}

// prefetchSweep triggers proactive swap-ins for backends predicted to
// receive a request before a reactive swap-in could finish, hiding the
// restore cost off the critical path when traffic is periodic. The
// forecast is the node predictor's EWMA inter-arrival gap.
func (s *Server) prefetchSweep() {
	now := s.clock.Now()
	gate := simclock.GateFor(s.clock)
	for _, b := range s.Backends() {
		if b.State() != BackendSwappedOut {
			continue
		}
		predicted, gap, ok := s.demand.NextArrival(b.name)
		if !ok {
			continue // fewer than two observed arrivals
		}
		// Estimated restore cost for this backend's saved state.
		est := s.testbed.CheckpointRestore(b.RequiredBytes(), b.model.WeightBytes(), b.engine)
		// Prefetch when the predicted arrival falls within the swap-in
		// window (or is already overdue by less than one period — bursty
		// traffic often returns shortly after the EWMA point).
		if predicted.Sub(now) <= est && now.Sub(predicted) < gap {
			b := b
			gate.Go(func() {
				if err := s.sched.EnsureRunning(context.Background(), b); err == nil {
					s.reg.Counter("prefetch_swap_ins").Inc()
				}
			})
			continue
		}
		// Chunk warming: the predicted arrival is beyond the swap-in
		// window but within twice of it, and the snapshot sits on the
		// disk tier — promote it into host RAM now so the eventual
		// swap-in pays only the host→device copy. With the checkpoint
		// store attached the promotion moves chunks, not the image:
		// only missing chunks are fetched, each from whichever source
		// (local disk, peer RAM, peer disk) the perfmodel ranks
		// fastest, and chunks a hot image already holds in RAM are
		// deduplicated for free.
		if predicted.Sub(now) <= 2*est {
			if loc, err := s.driver.ImageLocation(b.ctr.ID()); err == nil && loc == cudackpt.LocDisk {
				b := b
				gate.Go(func() {
					if err := s.driver.Promote(context.Background(), b.ctr.ID()); err == nil {
						s.reg.Counter("prefetch_chunk_promotes").Inc()
					}
				})
			}
		}
	}
}

// sampleGPUs records every device's memory and compute utilization in
// the metrics registry (gpu<N>_used_gib, gpu<N>_utilization) — the data
// behind a Figure 3 style analysis of a live deployment.
func (s *Server) sampleGPUs() {
	now := s.clock.Now()
	for _, st := range s.tm.Monitor().Sample() {
		s.reg.Series(fmt.Sprintf("gpu%d_used_gib", st.ID)).
			Append(now, float64(st.UsedBytes)/(1<<30))
		s.reg.Series(fmt.Sprintf("gpu%d_utilization", st.ID)).
			Append(now, st.Utilization)
	}
}
