package cudackpt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"swapservellm/internal/ckptstore"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
)

// ImageLocation identifies where a checkpoint image currently resides.
type ImageLocation int

// Image locations.
const (
	// LocRAM: the image is in host memory — the fast path measured in
	// Figures 5/6.
	LocRAM ImageLocation = iota
	// LocDisk: the image was spilled to disk under host-memory pressure;
	// restoring it first pays a disk read.
	LocDisk
)

// String returns the lowercase location name.
func (l ImageLocation) String() string {
	if l == LocDisk {
		return "disk"
	}
	return "ram"
}

// ImageLocation reports where pid's checkpoint image resides.
func (d *Driver) ImageLocation(pid string) (ImageLocation, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.procs[pid]
	if !ok {
		return LocRAM, ErrUnknownProcess
	}
	return p.loc, nil
}

// DiskUsed returns the bytes of checkpoint images spilled to disk.
func (d *Driver) DiskUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.diskUsed
}

// SpillCount returns how many images have been spilled to disk in total.
func (d *Driver) SpillCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spills
}

// Demote moves a checkpointed, RAM-resident image to disk, paying the
// disk write at the storage tier's effective bandwidth. The cluster
// rebalancer uses this to free host memory on a hot node after its
// snapshot has been replicated elsewhere. ctx carries the active trace
// span; the write itself is not interruptible.
func (d *Driver) Demote(ctx context.Context, pid string) (err error) {
	_, span := obs.Start(ctx, "ckpt.demote", obs.String("pid", pid))
	defer func() { span.EndErr(err) }()
	d.mu.Lock()
	p, ok := d.procs[pid]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownProcess, pid)
	}
	if p.state != StateCheckpointed || p.hostImage == 0 || p.transferring {
		d.mu.Unlock()
		return fmt.Errorf("%w: demote of %q in state %v", ErrBadState, pid, p.state)
	}
	if p.loc == LocDisk {
		d.mu.Unlock()
		return nil
	}
	bytes := p.hostImage
	d.hostUsed -= bytes
	d.diskUsed += bytes
	p.loc = LocDisk
	d.spills++
	var sleep time.Duration
	demoted := false
	if d.store != nil {
		// Chunk-aware demotion: only chunks no other RAM-resident image
		// references are written out; shared chunks keep their host copy.
		if _, wsleep, derr := d.store.Demote(ctx, pid); derr == nil {
			sleep = wsleep
			demoted = true
		}
	}
	d.mu.Unlock()
	if !demoted {
		sleep = d.testbed.StorageReadTime(perfmodel.TierDisk, bytes)
	}
	d.clock.Sleep(sleep)
	return nil
}

// Promote moves a checkpointed, disk-spilled image back into host RAM,
// paying the disk read. It fails with ErrHostMemory when the image no
// longer fits under the host cap — Promote never spills other images to
// make room.
func (d *Driver) Promote(ctx context.Context, pid string) (err error) {
	_, span := obs.Start(ctx, "ckpt.promote", obs.String("pid", pid))
	defer func() { span.EndErr(err) }()
	d.mu.Lock()
	p, ok := d.procs[pid]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownProcess, pid)
	}
	if p.state != StateCheckpointed || p.hostImage == 0 || p.transferring {
		d.mu.Unlock()
		return fmt.Errorf("%w: promote of %q in state %v", ErrBadState, pid, p.state)
	}
	if p.loc == LocRAM {
		d.mu.Unlock()
		return nil
	}
	bytes := p.hostImage
	if d.hostCap > 0 && d.hostUsed+d.hostPledged+bytes > d.hostCap {
		d.mu.Unlock()
		return fmt.Errorf("%w: need %d, used %d of %d", ErrHostMemory, bytes, d.hostUsed, d.hostCap)
	}
	d.diskUsed -= bytes
	d.hostUsed += bytes
	p.loc = LocRAM
	st := d.store
	d.mu.Unlock()
	if st != nil {
		// Chunk-aware promotion: only the missing chunks move, fetched
		// from whichever source (local disk, peer RAM, peer disk) the
		// perfmodel ranks fastest; chunks another hot image already
		// keeps in RAM are deduplicated for free. The store sleeps for
		// the fetches itself.
		_, _, perr := st.Promote(ctx, pid)
		switch {
		case perr == nil:
			return nil
		case errors.Is(perr, ckptstore.ErrUnknownManifest):
			// A pre-store image with no manifest: whole-image read below.
		default:
			// The fetch failed on every source; the image stays on disk.
			d.mu.Lock()
			d.diskUsed += bytes
			d.hostUsed -= bytes
			p.loc = LocDisk
			d.mu.Unlock()
			return fmt.Errorf("cudackpt: promote of %q: %w", pid, perr)
		}
	}
	d.clock.Sleep(d.testbed.StorageReadTime(perfmodel.TierDisk, bytes))
	return nil
}

// SnapshotInfo describes one checkpointed image for inventory listings.
type SnapshotInfo struct {
	PID      string
	Bytes    int64
	Loc      ImageLocation
	LastUsed time.Time
}

// Snapshots lists every checkpointed image, sorted by PID.
func (d *Driver) Snapshots() []SnapshotInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []SnapshotInfo
	for pid, p := range d.procs {
		if p.state != StateCheckpointed || p.hostImage == 0 || p.transferring {
			continue
		}
		out = append(out, SnapshotInfo{PID: pid, Bytes: p.hostImage, Loc: p.loc, LastUsed: p.lastUsed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// spillUntilLocked evicts LRU RAM-resident images to disk until need
// bytes fit under the host cap, excluding exceptPid. Spilling addresses
// the deployment limit the paper leaves open: a host with 221 GB of RAM
// cannot hold many 72 GB vLLM snapshots at once. Returns the total
// simulated write time the caller must sleep (outside the lock), and
// whether enough space was freed. Caller holds d.mu.
//
// With a store attached the spill is chunk-aware: demoting the victim's
// manifest writes only the chunks no other RAM-resident image (and no
// in-flight checkpoint) references — a deduped chunk shared with a
// resident model keeps its host copy, so that model's restore never
// pays a disk read for bytes the spill supposedly evicted. The driver's
// logical ledger still moves the whole image, preserving the host-cap
// and invariant-checker arithmetic.
func (d *Driver) spillUntilLocked(ctx context.Context, need int64, exceptPid string) (time.Duration, bool) {
	var sleep time.Duration
	for d.hostCap > 0 && d.hostUsed+d.hostPledged+need > d.hostCap {
		victim := d.lruResidentLocked(exceptPid)
		if victim == nil {
			return sleep, false
		}
		demoted := false
		if d.store != nil {
			if _, wsleep, err := d.store.Demote(ctx, victim.pid); err == nil {
				sleep += wsleep
				demoted = true
			}
		}
		if !demoted {
			// Writing the whole image out at the disk tier's effective
			// bandwidth (legacy path, or a pre-store image with no
			// manifest).
			sleep += d.testbed.StorageReadTime("disk", victim.hostImage)
		}
		d.hostUsed -= victim.hostImage
		d.diskUsed += victim.hostImage
		victim.loc = LocDisk
		d.spills++
	}
	return sleep, true
}

// lruResidentLocked returns the checkpointed, RAM-resident process with
// the oldest lastUsed stamp (nil if none). Caller holds d.mu.
func (d *Driver) lruResidentLocked(exceptPid string) *proc {
	var victim *proc
	for pid, p := range d.procs {
		if pid == exceptPid || p.state != StateCheckpointed || p.loc != LocRAM ||
			p.hostImage == 0 || p.transferring {
			continue
		}
		if victim == nil || p.lastUsed.Before(victim.lastUsed) {
			victim = p
		}
	}
	return victim
}
