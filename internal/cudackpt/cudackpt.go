// Package cudackpt simulates NVIDIA's transparent GPU checkpoint/restore
// driver functionality (the cuda-checkpoint utility) that SwapServeLLM
// relies on for engine-agnostic hot-swapping. A registered CUDA process
// moves through the same state machine as the real driver:
//
//	Running --Lock--> Locked --Checkpoint--> Checkpointed
//	Running <--Unlock-- Locked <--Restore-- Checkpointed
//
// Checkpoint copies the process's device allocations into a host-memory
// image (freeing GPU capacity for other workloads); Restore re-allocates
// device memory and copies the image back. Transfers move in chunks
// (see chunk.go) that release or claim GPU capacity incrementally, so a
// restore can pipeline against a concurrent checkpoint over the
// full-duplex PCIe link. Transfer times follow the calibrated PCIe
// model in internal/perfmodel, enacted on the simulation clock.
package cudackpt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/ckptstore"
	"swapservellm/internal/gpu"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/retry"
	"swapservellm/internal/simclock"
)

// State is the checkpoint state of a registered CUDA process.
type State int

// Process states, mirroring cuda-checkpoint's lock/checkpoint protocol.
const (
	StateRunning State = iota
	StateLocked
	StateCheckpointed
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateLocked:
		return "locked"
	case StateCheckpointed:
		return "checkpointed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// proc tracks one registered CUDA process (one entry covers every
// tensor-parallel shard of the workload).
type proc struct {
	pid         string
	devices     []*gpu.Device
	engine      perfmodel.EngineKind
	weightBytes int64
	// state only changes through transitionLocked so every edge lands
	// in the audit trace.
	state        State
	hostImage    int64   // bytes currently held in the host image
	shardBytes   []int64 // per-device bytes captured at checkpoint time
	loc          ImageLocation
	lastUsed     time.Time
	transferring bool   // a chunked checkpoint/restore is in flight
	transferGoal int64  // total bytes the in-flight transfer moves
	ckey         string // content key for weight-chunk dedup (store.go)
	dirtyGen     int64  // dynamic-region generation, bumped by MarkDirty
	// dynIDs are the dynamic chunks of the last plan, at generation
	// dynGen; a plan at a newer generation forgets them (store.go).
	dynIDs []ckptstore.ChunkID
	dynGen int64
	// links are the PCIe links of devices, looked up once (linksLocked).
	links []*perfmodel.PCIeLink
	// xfer is the scratch of the transfer in flight, reused by every
	// checkpoint and restore: transferring admits one at a time.
	xfer xfer
}

// xfer is a proc's per-transfer scratch. rem holds a checkpoint's bytes
// still on each device; alloced a restore's bytes allocated so far on
// each, and steps the current chunk's per-device steps, of which alloc
// (allocStep, bound once) runs cur.
type xfer struct {
	d        *Driver
	p        *proc
	rem      []int64
	alloced  []int64
	steps    []chunkStep
	cur      chunkStep
	fromDisk bool
	alloc    func() error
}

// Driver simulates the per-node checkpoint driver. All methods are safe
// for concurrent use; operations on distinct processes proceed in
// parallel, while per-process transitions are serialized.
type Driver struct {
	clock   simclock.Clock
	testbed perfmodel.Testbed

	mu          sync.Mutex
	procs       map[string]*proc
	hostUsed    int64
	hostPledged int64 // in-flight checkpoint bytes pledged against the cap
	hostCap     int64 // 0 = unlimited; a checkpoint past it spills LRU images to disk
	diskUsed    int64
	spills      int64
	chunkBytes  int64
	links       map[int]*perfmodel.PCIeLink // device ID -> PCIe link
	chunkHooks  []func(ChunkEvent)
	chaosInj    *chaos.Injector
	trace       *chaos.Trace
	store       *ckptstore.Store // content-addressed substrate (nil = legacy)
}

// NewDriver creates a driver that times transfers against tb on clock.
// hostCapBytes bounds the total host memory available for checkpoint
// images (0 means unlimited); a checkpoint that would exceed it spills
// least-recently-used images to disk, and fails with ErrHostMemory only
// when nothing is left to spill.
func NewDriver(clock simclock.Clock, tb perfmodel.Testbed, hostCapBytes int64) *Driver {
	return &Driver{
		clock:      clock,
		testbed:    tb,
		procs:      make(map[string]*proc),
		hostCap:    hostCapBytes,
		chunkBytes: DefaultChunkBytes,
		links:      make(map[int]*perfmodel.PCIeLink),
	}
}

// Register adds a CUDA process whose device allocations are owned by pid
// on device. weightBytes parameterizes the restore first-touch cost.
func (d *Driver) Register(pid string, device *gpu.Device, engine perfmodel.EngineKind, weightBytes int64) error {
	return d.RegisterSharded(pid, []*gpu.Device{device}, engine, weightBytes)
}

// RegisterSharded adds a tensor-parallel CUDA process spanning the given
// devices; checkpoint and restore cover every shard.
func (d *Driver) RegisterSharded(pid string, devices []*gpu.Device, engine perfmodel.EngineKind, weightBytes int64) error {
	if len(devices) == 0 {
		return fmt.Errorf("cudackpt: process %q needs at least one device", pid)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.procs[pid]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyExists, pid)
	}
	p := &proc{
		pid:         pid,
		devices:     devices,
		engine:      engine,
		weightBytes: weightBytes,
		shardBytes:  make([]int64, len(devices)),
	}
	p.xfer = xfer{d: d, p: p,
		rem:     make([]int64, len(devices)),
		alloced: make([]int64, len(devices)),
		steps:   make([]chunkStep, 0, len(devices))}
	p.xfer.alloc = p.xfer.allocStep
	p.state = StateRunning
	d.procs[pid] = p
	return nil
}

// Unregister removes a process. A checkpointed process's host image is
// released.
func (d *Driver) Unregister(pid string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.procs[pid]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownProcess, pid)
	}
	if p.transferring {
		return fmt.Errorf("%w: unregister of %q mid-transfer", ErrBadState, pid)
	}
	if p.loc == LocDisk {
		d.diskUsed -= p.hostImage
	} else {
		d.hostUsed -= p.hostImage
	}
	delete(d.procs, pid)
	if d.store != nil {
		// Drop the manifest reference; the chunks stay cached for any
		// replica sharing the content key.
		d.store.Release(pid)
	}
	return nil
}

// State returns the current checkpoint state of pid.
func (d *Driver) State(pid string) (State, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.procs[pid]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownProcess, pid)
	}
	return p.state, nil
}

// ImageBytes returns the size of pid's host checkpoint image (zero unless
// checkpointed).
func (d *Driver) ImageBytes(pid string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.procs[pid]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownProcess, pid)
	}
	return p.hostImage, nil
}

// HostUsed returns the total host memory consumed by checkpoint images.
func (d *Driver) HostUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostUsed
}

// get fetches the proc or fails.
func (d *Driver) get(pid string) (*proc, error) {
	p, ok := d.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProcess, pid)
	}
	return p, nil
}

// Lock quiesces a running process's CUDA activity (cuda-checkpoint
// --action lock). It must be in the Running state. ctx carries the
// active trace span; the lock itself is not interruptible (it models
// one short driver ioctl).
func (d *Driver) Lock(ctx context.Context, pid string) (err error) {
	ctx, span := obs.Start(ctx, "ckpt.lock", obs.String("pid", pid))
	defer func() { span.EndErr(err) }()
	d.mu.Lock()
	p, err := d.get(pid)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	if p.state != StateRunning {
		st := p.state
		d.mu.Unlock()
		return fmt.Errorf("%w: lock from %v", ErrBadState, st)
	}
	if ferr := d.takeFaultLocked(chaos.SiteCkptLock, pid); ferr != nil {
		d.mu.Unlock()
		obs.AnnotateFault(ctx, string(chaos.SiteCkptLock), ferr)
		return ferr
	}
	d.transitionLocked(p, StateRunning, StateLocked)
	d.mu.Unlock()
	d.clock.Sleep(d.testbed.CkptLock)
	return nil
}

// Unlock resumes a locked process (cuda-checkpoint --action unlock).
func (d *Driver) Unlock(ctx context.Context, pid string) (err error) {
	ctx, span := obs.Start(ctx, "ckpt.unlock", obs.String("pid", pid))
	defer func() { span.EndErr(err) }()
	d.mu.Lock()
	defer d.mu.Unlock()
	p, err := d.get(pid)
	if err != nil {
		return err
	}
	if p.state != StateLocked {
		return fmt.Errorf("%w: unlock from %v", ErrBadState, p.state)
	}
	if ferr := d.takeFaultLocked(chaos.SiteCkptUnlock, pid); ferr != nil {
		obs.AnnotateFault(ctx, string(chaos.SiteCkptUnlock), ferr)
		return ferr
	}
	d.transitionLocked(p, StateLocked, StateRunning)
	return nil
}

// Checkpoint copies a locked process's device state into a host image and
// frees its GPU memory (cuda-checkpoint --action checkpoint). The copy
// moves chunk by chunk, releasing device capacity and accumulating host
// image bytes incrementally — a concurrent restore can claim the freed
// capacity before the checkpoint finishes. Returns the image size.
//
// Cancelling ctx aborts the transfer at the next chunk boundary: the
// partial image rolls back and the process stays Locked — unless a
// pipelined restore already claimed the freed device capacity, in which
// case the checkpoint rolls forward to completion (the memory cannot be
// given back).
func (d *Driver) Checkpoint(ctx context.Context, pid string) (bytes int64, err error) {
	ctx, span := obs.Start(ctx, "ckpt.checkpoint", obs.String("pid", pid))
	defer func() { span.EndErr(err) }()
	d.mu.Lock()
	p, err := d.get(pid)
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	if p.state != StateLocked || p.transferring {
		st := p.state
		d.mu.Unlock()
		return 0, fmt.Errorf("%w: checkpoint from %v", ErrBadState, st)
	}
	if ferr := d.takeFaultLocked(chaos.SiteCkptCheckpoint, pid); ferr != nil {
		d.mu.Unlock()
		obs.AnnotateFault(ctx, string(chaos.SiteCkptCheckpoint), ferr)
		return 0, ferr
	}
	pcie := d.pcieDelayLocked(pid)
	// shard is what the devices hold now: the image's shard sizes once
	// it commits (only a Checkpointed process's are read), and the
	// rollback's target until then.
	shard := p.shardBytes
	for i, dev := range p.devices {
		shard[i] = dev.OwnerUsage(p.pid)
		bytes += shard[i]
	}
	span.SetAttr(obs.Int64("bytes", bytes))
	spillSleep, ok := d.spillUntilLocked(ctx, bytes, pid)
	if !ok {
		d.mu.Unlock()
		return 0, fmt.Errorf("%w: need %d, used %d of %d and nothing left to spill",
			ErrHostMemory, bytes, d.hostUsed, d.hostCap)
	}
	// The whole image is pledged against the host cap up front; each
	// committed chunk converts its share of the pledge into real usage.
	d.hostPledged += bytes
	p.transferring = true
	p.transferGoal = bytes
	p.loc = LocRAM
	total := d.testbed.CheckpointSave(maxShard(shard)) - d.testbed.CkptLock
	chunk := d.chunkBytes
	links := d.linksLocked(p)
	rem := append(p.xfer.rem[:0], shard...)
	// With a store attached, plan the image's content-addressed chunks:
	// chunks whose content is already host-resident (unchanged weights,
	// pristine or unchanged KV regions) skip their D2H copy entirely —
	// the delta checkpoint. The plan pins those chunks until commit.
	var plan []ckptstore.ChunkRef
	var clean []bool
	if d.store != nil {
		plan = d.chunkPlanLocked(p, bytes)
		clean = d.store.PlanCheckpoint(pid, plan)
	}
	d.mu.Unlock()
	d.clock.Sleep(spillSleep)

	// D2H copies run outside the driver lock so distinct processes
	// checkpoint concurrently; shards transfer in parallel over their own
	// PCIe links, so the slowest (largest) shard dominates the calibrated
	// full-transfer duration, which chunkShare splits across chunks by
	// byte share. Injected PCIe congestion charges on the first chunk
	// that actually crosses the link.
	var done int64
	ci := 0
	pcieCharged := false
	rollForward := false
	for done < bytes {
		c := min(chunk, bytes-done)
		share := chunkShare(total, done, done+c, bytes)
		skip := ci < len(clean) && clean[ci]
		var extra time.Duration
		if !pcieCharged && !skip {
			extra = pcie
			pcieCharged = true
		}
		// A cancelled ctx aborts exactly like a chunk fault: before this
		// chunk commits any accounting. The ctx is read once the chunk's
		// transfer time has passed, when this goroutine is the one the
		// clock just woke. Read right after the previous commit instead,
		// it would race the restore that commit woke: a cancel the
		// restore causes at that instant could land on either side of
		// the read. A delta-skipped chunk crosses no link and takes no
		// time, so it consults no transfer fault site and reads no ctx.
		moved := skip
		if !rollForward && !skip {
			ferr := d.chunkFault(ctx, pid, links, perfmodel.DirD2H, share)
			if ferr == nil {
				d.sleepContended(links, perfmodel.DirD2H, share+extra)
				moved = true
				ferr = ctx.Err()
			}
			if ferr != nil {
				if d.rollbackCheckpoint(p, shard, rem, done, bytes) {
					if d.store != nil {
						d.store.AbortCheckpoint(pid)
					}
					return 0, fmt.Errorf("cudackpt: checkpoint of %q aborted at %d/%d bytes: %w",
						pid, done, bytes, ferr)
				}
				// The freed capacity was already claimed (a pipelined
				// restore is moving in), so the device memory cannot be
				// given back: roll forward and finish the checkpoint,
				// skipping further fault consultation.
				rollForward = true
			}
		}
		if !moved {
			d.sleepContended(links, perfmodel.DirD2H, share+extra)
		}
		d.mu.Lock()
		d.hostPledged -= c
		d.hostUsed += c
		p.hostImage += c
		drainDevices(p, rem, c)
		d.mu.Unlock()
		done += c
		ci++
		d.emitChunk(ChunkEvent{PID: pid, Dir: perfmodel.DirD2H, Done: done, Total: bytes})
		if span != nil {
			span.Event("chunk",
				obs.String("dir", perfmodel.DirD2H.String()),
				obs.Int64("done_bytes", done), obs.Int64("total_bytes", bytes))
		}
	}
	if bytes == 0 {
		d.clock.Sleep(total + pcie)
	}

	d.mu.Lock()
	for _, dev := range p.devices {
		// Clear any zero-byte owner entry left behind by the engine.
		dev.Resize(p.pid, 0)
	}
	d.transitionLocked(p, StateLocked, StateCheckpointed)
	p.transferring = false
	p.transferGoal = 0
	p.lastUsed = d.clock.Now()
	st := d.store
	d.mu.Unlock()
	if st != nil {
		dedup := st.CommitCheckpoint(ctx, pid)
		span.SetAttr(obs.Int64("dedup_bytes", dedup.DedupBytes),
			obs.Int64("new_bytes", dedup.NewBytes))
	}
	return bytes, nil
}

// Claim is the device capacity a restore allocates into. Each chunk
// takes its bytes on every device it lands on from the claim before it
// allocates them. The engine controller passes its task-manager
// reservation: a pipelined swap-in's claim grows chunk by chunk as the
// victim's checkpoint frees memory, so the target restores as fast as
// the victim moves out, into capacity no other reservation holds.
type Claim interface {
	// Take blocks until the claim holds bytes of capacity on device
	// gpuID that the restore has not allocated yet, or ctx ends. It then
	// runs alloc — the restore's allocation of those bytes — and charges
	// them to the claim in the same step.
	Take(ctx context.Context, gpuID int, bytes int64, alloc func() error) error
}

// Restore re-allocates a checkpointed process's device memory and copies
// its host image back (cuda-checkpoint --action restore), chunk by
// chunk, taking each chunk's capacity from claim. The process is left
// Locked; call Unlock to resume it. A nil claim restores into the
// devices' free memory and fails fast with gpu.ErrOutOfMemory if the
// image does not fit at call time — eviction policy belongs to the
// caller. Cancelling ctx (including while a chunk awaits its claim)
// aborts at the next chunk boundary: the partial transfer rolls back and
// the process stays Checkpointed.
func (d *Driver) Restore(ctx context.Context, pid string, claim Claim) (err error) {
	ctx, span := obs.Start(ctx, "ckpt.restore", obs.String("pid", pid))
	defer func() { span.EndErr(err) }()
	d.mu.Lock()
	p, err := d.get(pid)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	if p.state != StateCheckpointed || p.transferring {
		st := p.state
		d.mu.Unlock()
		return fmt.Errorf("%w: restore from %v", ErrBadState, st)
	}
	if ferr := d.takeFaultLocked(chaos.SiteCkptRestore, pid); ferr != nil {
		d.mu.Unlock()
		obs.AnnotateFault(ctx, string(chaos.SiteCkptRestore), ferr)
		return ferr
	}
	pcie := d.pcieDelayLocked(pid)
	bytes := p.hostImage
	span.SetAttr(obs.Int64("bytes", bytes))
	// A Checkpointed process's shard sizes hold still until its next
	// checkpoint, which waits for this restore to leave it Locked.
	shard := p.shardBytes
	fromDisk := p.loc == LocDisk
	if claim == nil {
		for i, dev := range p.devices {
			if free := dev.Free(); free < shard[i] {
				d.mu.Unlock()
				return fmt.Errorf("%w: need %d, free %d on gpu %d",
					gpu.ErrOutOfMemory, shard[i], free, dev.ID())
			}
		}
		claim = freeMemory{}
	}
	p.transferring = true
	p.transferGoal = bytes
	// H2D copies and first-touch run outside the lock; parallel shards
	// mean the largest one dominates. The engine-resume overhead is
	// charged by the caller (engine controller), not here. A
	// disk-resident image additionally pays the disk read, spread across
	// the chunk pipeline.
	perShardWeights := p.weightBytes / int64(len(p.devices))
	total := d.testbed.CheckpointRestore(maxShard(shard), perShardWeights, p.engine) -
		d.testbed.CkptLock - perfmodel.EngineResumeOverhead(p.engine)
	chunk := d.chunkBytes
	links := d.linksLocked(p)
	st := d.store
	d.mu.Unlock()

	// With a store manifest the restore is planned per chunk against the
	// cheapest source — a chunk in local host RAM is free, one in a peer
	// replica's RAM beats the local disk read — and each chunk's fetch
	// is charged on the pipeline's critical path as it is needed. A
	// legacy image (no manifest) pays the monolithic disk read spread
	// across the chunk pipeline, as before.
	var sess *ckptstore.RestoreSession
	if st != nil {
		s, serr := st.OpenRestore(ctx, pid)
		switch {
		case serr == nil:
			sess = s
			defer func() { sess.Close(err) }()
		case !errors.Is(serr, ckptstore.ErrUnknownManifest):
			d.mu.Lock()
			p.transferring = false
			p.transferGoal = 0
			d.mu.Unlock()
			return fmt.Errorf("cudackpt: restore of %q unplannable: %w", pid, serr)
		}
	}
	if sess == nil && fromDisk {
		total += d.testbed.StorageReadTime(perfmodel.TierDisk, bytes)
	}

	x := &p.xfer
	clear(x.alloced)
	x.fromDisk = fromDisk
	var done int64
	for done < bytes {
		c := min(chunk, bytes-done)
		share := chunkShare(total, done, done+c, bytes)
		var extra time.Duration
		if done == 0 {
			extra = pcie
		}
		// The fault and cancellation checks run before the chunk takes
		// capacity from the claim.
		ferr := ctx.Err()
		if ferr == nil {
			ferr = d.chunkFault(ctx, pid, links, perfmodel.DirH2D, share)
		}
		if ferr == nil && sess != nil {
			// Pull this chunk's bytes to local host RAM from the planned
			// source (free when already local; peer RAM / disk otherwise,
			// with bounded-retry fallback under ckptstore.fetch faults).
			ferr = sess.FetchRange(done, done+c)
		}
		x.steps = chunkSteps(x.steps, shard, x.alloced, c)
		for _, x.cur = range x.steps {
			if ferr != nil {
				break
			}
			ferr = claim.Take(ctx, p.devices[x.cur.i].ID(), x.cur.grow, x.alloc)
		}
		if ferr != nil {
			d.rollbackRestore(p, x.alloced, fromDisk)
			return fmt.Errorf("cudackpt: restore of %q aborted at %d/%d bytes: %w",
				pid, done, bytes, ferr)
		}
		done += c
		d.sleepContended(links, perfmodel.DirH2D, share+extra)
		d.emitChunk(ChunkEvent{PID: pid, Dir: perfmodel.DirH2D, Done: done, Total: bytes})
		if span != nil {
			span.Event("chunk",
				obs.String("dir", perfmodel.DirH2D.String()),
				obs.Int64("done_bytes", done), obs.Int64("total_bytes", bytes))
		}
	}
	if bytes == 0 {
		d.clock.Sleep(total + pcie)
	}

	d.mu.Lock()
	p.hostImage = 0
	p.loc = LocRAM
	p.lastUsed = d.clock.Now()
	d.transitionLocked(p, StateCheckpointed, StateLocked)
	p.transferring = false
	p.transferGoal = 0
	d.mu.Unlock()
	if sess != nil {
		// The image left the store: drop the manifest. Its chunks stay
		// cached in their tiers — the next checkpoint of this process
		// delta-skips every chunk whose content they still match.
		st.Release(pid)
	}
	return nil
}

// allocStep is a restore's allocation of the current step, x.cur: it
// grows the claimed device by the step's bytes.
func (x *xfer) allocStep() error {
	d, p := x.d, x.p
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := p.devices[x.cur.i].Resize(p.pid, x.alloced[x.cur.i]+x.cur.grow); err != nil {
		return err
	}
	x.alloced[x.cur.i] += x.cur.grow
	// The bytes leave the image the moment their device copy begins,
	// keeping device+image conservation exact.
	if x.fromDisk {
		d.diskUsed -= x.cur.grow
	} else {
		d.hostUsed -= x.cur.grow
	}
	p.hostImage -= x.cur.grow
	return nil
}

// Suspend is the convenience sequence Lock + Checkpoint used by the engine
// controller's swap-out path. Returns the host image size.
func (d *Driver) Suspend(ctx context.Context, pid string) (bytes int64, err error) {
	ctx, span := obs.Start(ctx, "ckpt.suspend", obs.String("pid", pid))
	defer func() { span.EndErr(err) }()
	if err := d.Lock(ctx, pid); err != nil {
		return 0, err
	}
	bytes, err = d.Checkpoint(ctx, pid)
	if err != nil {
		// Roll the lock back so the process is usable again. Unlock can
		// itself hit a transient injected fault; the shared bounded-retry
		// policy keeps a single chaos firing from wedging the process in
		// Locked. The rollback must run even when the checkpoint aborted
		// on a cancelled ctx, so it uses a fresh context carrying only
		// the trace span.
		if uerr := retry.Transient(func() error { return d.Unlock(context.WithoutCancel(ctx), pid) }); uerr != nil {
			return 0, errors.Join(err, uerr)
		}
		return 0, err
	}
	return bytes, nil
}

// maxShard returns the largest per-device byte count (zero for empty).
func maxShard(shard []int64) int64 {
	var m int64
	for _, b := range shard {
		if b > m {
			m = b
		}
	}
	return m
}

// Resume is the convenience sequence Restore + Unlock used by the engine
// controller's swap-in path; claim is passed to Restore.
func (d *Driver) Resume(ctx context.Context, pid string, claim Claim) (err error) {
	ctx, span := obs.Start(ctx, "ckpt.resume", obs.String("pid", pid))
	defer func() { span.EndErr(err) }()
	if err := d.Restore(ctx, pid, claim); err != nil {
		return err
	}
	// The restore completed; a cancellation arriving now must not leave
	// the process wedged in Locked. Unlock never reads ctx's
	// cancellation (it models one short ioctl), only its span.
	return d.Unlock(ctx, pid)
}
