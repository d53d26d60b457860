package cudackpt

import (
	"sort"
	"time"

	"swapservellm/internal/chaos"
)

// This file is the driver's chaos integration: the injectable fault
// points the deterministic schedule engine (internal/chaos) drives, and
// the introspection surface the invariant checker audits. Driver-level
// checkpoint/restore failures happen in production (ECC errors, device
// resets, OOM host mappings, congested PCIe links) and the simulation
// makes them reproducible: every transition consults the injector
// before mutating state, so an injected fault always leaves the process
// exactly where it was.

// SetChaos installs (or, with nil, removes) the fault injector. All
// driver operations consult it: Lock, Checkpoint, Restore, and Unlock
// fail with the injector's error before any state change, and
// checkpoint/restore transfers stretch by any chaos.SiteCkptPCIe delay.
func (d *Driver) SetChaos(in *chaos.Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chaosInj = in
}

// SetTrace installs (or removes) the transition audit log. Every
// successful state transition is recorded as a "ckpt" event, so the
// invariant checker can prove no process was double-checkpointed or
// double-restored across a whole chaos run.
func (d *Driver) SetTrace(t *chaos.Trace) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trace = t
}

// takeFaultLocked consults the injector for op on process pid,
// returning the error to raise or nil. Draws are keyed by pid, so a
// victim's checkpoint and a target's restore stepping their chunks at
// the same simulated instants draw the same faults in either order.
// Caller holds d.mu; the injector has its own lock and never calls back
// into the driver.
func (d *Driver) takeFaultLocked(site chaos.Site, pid string) error {
	return d.chaosInj.AtFor(site, pid).Err
}

// pcieDelayLocked returns any injected PCIe latency for pid's next
// transfer. Caller holds d.mu; the sleep itself happens outside it.
func (d *Driver) pcieDelayLocked(pid string) time.Duration {
	return d.chaosInj.AtFor(chaos.SiteCkptPCIe, pid).Delay
}

// recordLocked appends a successful transition to the audit trace.
// Caller holds d.mu.
func (d *Driver) recordLocked(pid string, from, to State) {
	d.trace.Record("ckpt", pid, from.String(), to.String())
}

// transitionLocked is the sole mutator of a process's lifecycle state:
// it moves p from -> to and records the edge in the audit trace. Caller holds d.mu and has validated the edge.
func (d *Driver) transitionLocked(p *proc, from, to State) {
	p.state = to
	d.recordLocked(p.pid, from, to)
}

// ProcInfo is one registered process's audit snapshot.
type ProcInfo struct {
	// PID is the registered process identifier (the container ID).
	PID string
	// State is the current checkpoint state.
	State State
	// ImageBytes is the host image size (zero unless checkpointed or
	// mid-transfer).
	ImageBytes int64
	// Loc is where the image resides when checkpointed.
	Loc ImageLocation
	// DeviceIDs are the GPU indices the process spans.
	DeviceIDs []int
	// Transferring reports a chunked checkpoint/restore in flight.
	Transferring bool
	// TransferGoal is the total bytes the in-flight transfer moves
	// (zero when not transferring). While transferring, DeviceBytes +
	// ImageBytes == TransferGoal at every chunk boundary.
	TransferGoal int64
	// DeviceBytes is the process's summed device allocation, captured
	// under the driver lock so it is consistent with ImageBytes even
	// while other transfers are in flight.
	DeviceBytes int64
}

// ProcInfos returns an audit snapshot of every registered process,
// sorted by PID — the invariant checker reconciles these against
// device-owner accounting and the host/disk usage totals.
func (d *Driver) ProcInfos() []ProcInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.procInfosLocked()
}

func (d *Driver) procInfosLocked() []ProcInfo {
	out := make([]ProcInfo, 0, len(d.procs))
	for pid, p := range d.procs {
		info := ProcInfo{
			PID:          pid,
			State:        p.state,
			ImageBytes:   p.hostImage,
			Loc:          p.loc,
			Transferring: p.transferring,
			TransferGoal: p.transferGoal,
		}
		for _, dev := range p.devices {
			info.DeviceIDs = append(info.DeviceIDs, dev.ID())
			info.DeviceBytes += dev.OwnerUsage(pid)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// AuditSnapshot is a single consistent view of the driver's bookkeeping:
// every field is captured under one hold of the driver lock, so the
// invariant checker can reconcile processes against the usage totals
// even while chunked transfers are committing on other goroutines.
type AuditSnapshot struct {
	Procs       []ProcInfo
	HostUsed    int64
	HostPledged int64
	DiskUsed    int64
}

// Audit returns a consistent audit snapshot. All transfer mutations
// (device allocation, image bytes, host/disk totals, pledges) commit
// atomically under the driver lock, so the snapshot is exact at any
// chunk boundary.
func (d *Driver) Audit() AuditSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return AuditSnapshot{
		Procs:       d.procInfosLocked(),
		HostUsed:    d.hostUsed,
		HostPledged: d.hostPledged,
		DiskUsed:    d.diskUsed,
	}
}

// HostPledged returns the host-memory bytes pledged (but not yet
// consumed) by in-flight chunked checkpoints. Zero at quiescence.
func (d *Driver) HostPledged() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostPledged
}
