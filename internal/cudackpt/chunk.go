package cudackpt

import (
	"context"
	"math"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/retry"
)

// This file is the chunked-transfer machinery behind Checkpoint and
// Restore. Instead of one monolithic sleep covering the whole image, a
// transfer moves DefaultChunkBytes-sized chunks that release (D2H) or
// claim (H2D) GPU capacity and host-image bytes incrementally, so a
// concurrent restore can begin as soon as the first victim chunks land
// — the pipelined full-duplex exchange a served swap-in runs when its
// reservation feeds the restore chunk by chunk (see Claim). Accounting
// is committed per chunk under the driver lock, which keeps the
// conservation invariant
//
//	device bytes + image bytes == transfer goal
//
// exact at every chunk boundary, not just at quiescence.

// DefaultChunkBytes is the default transfer chunk granularity (1 GiB),
// matching the pinned-buffer sizes pipelined loaders use in practice.
const DefaultChunkBytes = int64(1) << 30

// chunkFaultRetries bounds the driver-internal retries of a chunk whose
// transfer hit an injected fault before the whole transfer aborts and
// rolls back.
const chunkFaultRetries = 3

// ChunkEvent describes one committed transfer chunk. Dir is DirD2H for
// checkpoint saves (GPU capacity was just released) and DirH2D for
// restores (capacity was just claimed).
type ChunkEvent struct {
	PID   string
	Dir   perfmodel.Direction
	Done  int64 // cumulative bytes transferred, including this chunk
	Total int64 // transfer goal in bytes
}

// SetChunkBytes sets the transfer chunk granularity. n <= 0 disables
// chunking entirely: the whole image moves as one chunk, reproducing
// the pre-pipelining monolithic behavior.
func (d *Driver) SetChunkBytes(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n <= 0 {
		n = math.MaxInt64
	}
	d.chunkBytes = n
}

// OnChunk registers fn to run after every committed transfer chunk.
// Hooks run outside the driver lock (they may call back into driver
// getters); the server uses one to nudge the task manager whenever a
// D2H chunk frees capacity, and the chaos soak uses one to audit
// accounting at every chunk boundary.
func (d *Driver) OnChunk(fn func(ChunkEvent)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chunkHooks = append(d.chunkHooks, fn)
}

// emitChunk invokes the registered chunk hooks without holding d.mu.
func (d *Driver) emitChunk(ev ChunkEvent) {
	d.mu.Lock()
	hooks := d.chunkHooks
	d.mu.Unlock()
	for _, fn := range hooks {
		fn(ev)
	}
}

// linksLocked returns (creating on demand) the PCIe links of p's
// devices, looked up at p's first transfer: its devices never change.
// Caller holds d.mu.
func (d *Driver) linksLocked(p *proc) []*perfmodel.PCIeLink {
	if p.links != nil {
		return p.links
	}
	p.links = make([]*perfmodel.PCIeLink, len(p.devices))
	for i, dev := range p.devices {
		l, ok := d.links[dev.ID()]
		if !ok {
			l = &perfmodel.PCIeLink{}
			d.links[dev.ID()] = l
		}
		p.links[i] = l
	}
	return p.links
}

// chunkShare returns the slice of the calibrated full-transfer duration
// covering bytes [from, to) of a bytes-sized image. Shares are computed
// from cumulative offsets so they telescope: an uncontended chunked
// transfer sleeps exactly as long as the old monolithic one.
func chunkShare(total time.Duration, from, to, bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	f := float64(total)
	return time.Duration(f*float64(to)/float64(bytes)) - time.Duration(f*float64(from)/float64(bytes))
}

// sleepContended charges dur for one chunk, stretched by PCIe
// contention: the chunk registers on every link it crosses and the
// highest concurrent same-direction stream count (sampled at chunk
// start) multiplies the transfer time. Opposite-direction streams never
// contend — PCIe is full duplex, which is what makes the pipelined
// victim-out/target-in exchange profitable.
func (d *Driver) sleepContended(links []*perfmodel.PCIeLink, dir perfmodel.Direction, dur time.Duration) {
	factor := 1
	for _, l := range links {
		if f := l.Begin(dir); f > factor {
			factor = f
		}
	}
	d.clock.Sleep(dur * time.Duration(factor))
	for _, l := range links {
		l.End(dir)
	}
}

// chunkFault consults the per-chunk fault site, retrying a bounded
// number of times. A failed attempt burned its transfer time before the
// fault surfaced, so each retry recharges the chunk's share. Every
// injected firing is annotated onto ctx's active span so the trace
// shows the retries, not just the final abort. Returns the last fault
// when retries are exhausted — the caller aborts the transfer and rolls
// back.
func (d *Driver) chunkFault(ctx context.Context, pid string, links []*perfmodel.PCIeLink, dir perfmodel.Direction, share time.Duration) error {
	for attempt := 0; ; attempt++ {
		d.mu.Lock()
		err := d.takeFaultLocked(chaos.SiteCkptChunk, pid)
		d.mu.Unlock()
		if err == nil {
			return nil
		}
		obs.AnnotateFault(ctx, string(chaos.SiteCkptChunk), err)
		if attempt+1 >= chunkFaultRetries {
			return err
		}
		d.sleepContended(links, dir, share)
	}
}

// drainDevices shrinks p's device allocations by c bytes in device
// order (the image is a concatenation of the per-device shards), keeping
// rem in lockstep with the actual allocations. Caller holds d.mu.
func drainDevices(p *proc, rem []int64, c int64) {
	for i, dev := range p.devices {
		if c == 0 {
			break
		}
		take := min(rem[i], c)
		if take == 0 {
			continue
		}
		rem[i] -= take
		c -= take
		dev.Resize(p.pid, rem[i])
	}
}

// chunkStep is one device's share of a restore chunk: grow device i's
// allocation by grow bytes.
type chunkStep struct {
	i    int
	grow int64
}

// chunkSteps splits the next c bytes of the image across the devices in
// device order (the image is a concatenation of the per-device shards),
// toward the shard targets, appending the steps to steps[:0].
func chunkSteps(steps []chunkStep, shard, alloced []int64, c int64) []chunkStep {
	steps = steps[:0]
	for i := range shard {
		if c == 0 {
			break
		}
		if take := min(shard[i]-alloced[i], c); take > 0 {
			steps = append(steps, chunkStep{i, take})
			c -= take
		}
	}
	return steps
}

// freeMemory is the claim of a restore called without one: the image
// was checked to fit the devices' free memory up front, and each chunk
// allocates from whatever is free when it lands.
type freeMemory struct{}

func (freeMemory) Take(_ context.Context, _ int, _ int64, alloc func() error) error {
	return alloc()
}

// rollbackCheckpoint attempts to undo a mid-pipeline checkpoint abort:
// the bytes already drained from the devices are re-claimed, the
// partial host image is discarded, and the pledge is returned, leaving
// the process Locked with its device state intact. Returns false when
// the freed capacity has already been claimed by a concurrent workload
// (a pipelined restore moving in) — the caller must roll forward and
// finish the checkpoint instead, since the device memory can no longer
// be given back.
func (d *Driver) rollbackCheckpoint(p *proc, shard, rem []int64, done, bytes int64) bool {
	regrow := func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		grown := make([]int, 0, len(rem))
		for i, dev := range p.devices {
			if rem[i] == shard[i] {
				continue
			}
			if err := dev.Resize(p.pid, shard[i]); err != nil {
				for _, j := range grown {
					p.devices[j].Resize(p.pid, rem[j])
				}
				return err
			}
			grown = append(grown, i)
		}
		for _, j := range grown {
			rem[j] = shard[j]
		}
		d.hostUsed -= done
		d.hostPledged -= bytes - done
		p.hostImage = 0
		p.transferring = false
		p.transferGoal = 0
		return nil
	}
	return retry.Transient(regrow) == nil
}

// rollbackRestore undoes a mid-pipeline restore abort: the device bytes
// allocated so far (alloced, per device) are released and returned to
// the host (or disk) image, leaving the process Checkpointed with
// its full image. Unlike the checkpoint direction this always succeeds
// — shrinking allocations cannot fail. Re-adding the image may
// transiently exceed the host cap if another checkpoint moved into the
// freed host memory meanwhile; the image pages were never physically
// released, so the cap is treated as soft here.
func (d *Driver) rollbackRestore(p *proc, alloced []int64, fromDisk bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var done int64
	for _, a := range alloced {
		done += a
	}
	for _, dev := range p.devices {
		dev.Resize(p.pid, 0)
	}
	if fromDisk {
		d.diskUsed += done
	} else {
		d.hostUsed += done
	}
	p.hostImage += done
	p.transferring = false
	p.transferGoal = 0
}
