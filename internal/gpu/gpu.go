// Package gpu simulates NVIDIA GPU devices for the SwapServeLLM
// reproduction: memory allocation with out-of-memory semantics, per-owner
// accounting, compute-utilization tracking, and an NVML-style monitor used
// by the task manager to observe memory utilization (§3.1's GPU monitor).
package gpu

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"swapservellm/internal/perfmodel"
)

// ErrOutOfMemory is returned when an allocation does not fit in the
// device's free memory.
var ErrOutOfMemory = errors.New("gpu: out of memory")

// ErrUnknownOwner is returned when freeing or querying an owner that holds
// no allocations.
var ErrUnknownOwner = errors.New("gpu: unknown owner")

// Device simulates a single GPU: a fixed memory capacity carved into
// per-owner allocations, plus a compute-utilization aggregate. All methods
// are safe for concurrent use.
type Device struct {
	id    int
	kind  perfmodel.GPUKind
	total int64

	mu     sync.Mutex
	owners map[string]int64   // owner -> allocated bytes
	busy   map[string]float64 // owner -> compute utilization share [0,1]

	// Usage-integral tracking (for cost accounting): byteSeconds
	// accumulates Used()·dt exactly on every allocation change, avoiding
	// any polling.
	trackNow    func() time.Time
	trackedAt   time.Time
	byteSeconds float64
}

// NewDevice creates a device with the given index, product kind, and
// memory capacity in bytes.
func NewDevice(id int, kind perfmodel.GPUKind, totalBytes int64) *Device {
	if totalBytes <= 0 {
		panic(fmt.Sprintf("gpu: non-positive capacity %d", totalBytes))
	}
	return &Device{
		id:     id,
		kind:   kind,
		total:  totalBytes,
		owners: make(map[string]int64),
		busy:   make(map[string]float64),
	}
}

// ID returns the device index.
func (d *Device) ID() int { return d.id }

// Kind returns the GPU product kind.
func (d *Device) Kind() perfmodel.GPUKind { return d.kind }

// Total returns the device memory capacity in bytes.
func (d *Device) Total() int64 { return d.total }

// Used returns the currently allocated bytes.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.usedLocked()
}

func (d *Device) usedLocked() int64 {
	var used int64
	for _, b := range d.owners {
		used += b
	}
	return used
}

// Free returns the unallocated bytes.
func (d *Device) Free() int64 { return d.total - d.Used() }

// Alloc reserves bytes for owner, accumulating onto any existing
// allocation. It fails with ErrOutOfMemory when the device cannot fit the
// request.
func (d *Device) Alloc(owner string, bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("gpu: negative allocation %d for %q", bytes, owner)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.usedLocked()+bytes > d.total {
		return fmt.Errorf("%w: need %d, free %d on gpu %d",
			ErrOutOfMemory, bytes, d.total-d.usedLocked(), d.id)
	}
	d.accumulateLocked()
	d.owners[owner] += bytes
	return nil
}

// OwnerUsage returns the bytes currently held by owner (zero if none).
func (d *Device) OwnerUsage(owner string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.owners[owner]
}

// FreeOwner releases every allocation held by owner and returns the number
// of bytes released.
func (d *Device) FreeOwner(owner string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bytes, ok := d.owners[owner]
	if !ok {
		return 0, fmt.Errorf("%w: %q on gpu %d", ErrUnknownOwner, owner, d.id)
	}
	d.accumulateLocked()
	delete(d.owners, owner)
	delete(d.busy, owner)
	return bytes, nil
}

// Resize adjusts owner's allocation to exactly bytes (used by engines that
// grow or shrink their KV cache). Growing may fail with ErrOutOfMemory.
func (d *Device) Resize(owner string, bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("gpu: negative resize %d for %q", bytes, owner)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.owners[owner]
	if delta := bytes - cur; delta > 0 && d.usedLocked()+delta > d.total {
		return fmt.Errorf("%w: resize needs %d more, free %d on gpu %d",
			ErrOutOfMemory, delta, d.total-d.usedLocked(), d.id)
	}
	d.accumulateLocked()
	if bytes == 0 {
		delete(d.owners, owner)
	} else {
		d.owners[owner] = bytes
	}
	return nil
}

// SetBusy records owner's current compute-utilization share in [0,1]. The
// device's utilization is the capped sum over owners.
func (d *Device) SetBusy(owner string, share float64) {
	if share < 0 {
		share = 0
	}
	if share > 1 {
		share = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if share == 0 {
		delete(d.busy, owner)
		return
	}
	d.busy[owner] = share
}

// Utilization returns the instantaneous compute utilization in [0,1].
func (d *Device) Utilization() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var u float64
	for _, s := range d.busy {
		u += s
	}
	if u > 1 {
		u = 1
	}
	return u
}

// Owners returns the owners holding allocations, sorted by descending
// bytes then name — the order the task manager inspects candidates in.
func (d *Device) Owners() []Owner {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Owner, 0, len(d.owners))
	for name, b := range d.owners {
		out = append(out, Owner{Name: name, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// EnableUsageTracking starts exact usage-integral accounting on the
// device, timestamped by now (typically a simulation clock's Now). The
// integral accumulates on every allocation change — no polling.
func (d *Device) EnableUsageTracking(now func() time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trackNow = now
	d.trackedAt = now()
	d.byteSeconds = 0
}

// accumulateLocked folds the elapsed used·dt into the integral. Caller
// holds d.mu.
func (d *Device) accumulateLocked() {
	if d.trackNow == nil {
		return
	}
	now := d.trackNow()
	dt := now.Sub(d.trackedAt).Seconds()
	if dt > 0 {
		d.byteSeconds += float64(d.usedLocked()) * dt
	}
	d.trackedAt = now
}

// UsageIntegral returns the exact byte·seconds of memory occupancy since
// tracking was enabled (zero when tracking is off).
func (d *Device) UsageIntegral() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.accumulateLocked()
	return d.byteSeconds
}

// Owner pairs an allocation owner with its byte count.
type Owner struct {
	Name  string
	Bytes int64
}

// Stats is a point-in-time snapshot of a device, as exposed by the
// monitor.
type Stats struct {
	ID          int
	Kind        perfmodel.GPUKind
	TotalBytes  int64
	UsedBytes   int64
	Utilization float64
}

// Stats returns the device's current statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	var u float64
	for _, s := range d.busy {
		u += s
	}
	if u > 1 {
		u = 1
	}
	return Stats{
		ID:          d.id,
		Kind:        d.kind,
		TotalBytes:  d.total,
		UsedBytes:   d.usedLocked(),
		Utilization: u,
	}
}
