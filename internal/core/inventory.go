package core

import (
	"time"
)

// ModelInventory is one backend's node-local serving and snapshot state:
// what the cluster layer needs to make locality-aware placement
// decisions (a warm backend beats a RAM snapshot beats a disk-spilled
// one) and what the rebalancer needs to migrate cold images.
type ModelInventory struct {
	// Model is the backend's model name.
	Model string `json:"model"`
	// Engine is the backend's engine kind.
	Engine string `json:"engine"`
	// State is the backend's serving state string.
	State string `json:"state"`
	// Warm reports whether the backend is resident and servable without a
	// swap-in.
	Warm bool `json:"warm"`
	// SnapshotLoc is where the checkpoint image resides when swapped out:
	// "ram", "disk", or "" when no image exists.
	SnapshotLoc string `json:"snapshot_loc,omitempty"`
	// SnapshotBytes is the checkpoint image size (zero unless swapped
	// out).
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// RequiredBytes is the GPU memory a swap-in must reserve.
	RequiredBytes int64 `json:"required_bytes"`
	// QueueLen, Pending, and Active describe outstanding work: queued,
	// dequeued-but-unforwarded, and in-flight requests.
	QueueLen int   `json:"queue_len"`
	Pending  int64 `json:"pending"`
	Active   int64 `json:"active"`
	// LastAccessed is the most recent request arrival.
	LastAccessed time.Time `json:"last_accessed"`
}

// Load is the backend's outstanding work: the queue depth plus dequeued
// and in-flight requests.
func (mi ModelInventory) Load() int {
	return mi.QueueLen + int(mi.Pending) + int(mi.Active)
}

// Inventory reports every backend's serving state and snapshot
// placement, sorted by model name. This is the node-local inventory the
// cluster's placement engine and rebalancer consume.
func (s *Server) Inventory() []ModelInventory {
	return s.AppendInventory(make([]ModelInventory, 0, len(s.Backends())))
}

// AppendInventory appends Inventory's entries to dst, so a caller that
// samples the inventory repeatedly can reuse one buffer.
func (s *Server) AppendInventory(dst []ModelInventory) []ModelInventory {
	out := dst
	for _, b := range s.Backends() {
		mi := ModelInventory{
			Model:         b.name,
			Engine:        string(b.engine),
			State:         b.State().String(),
			Warm:          b.State() == BackendRunning,
			RequiredBytes: b.RequiredBytes(),
			QueueLen:      b.QueueLen(),
			Pending:       b.Pending(),
			Active:        b.Active(),
			LastAccessed:  b.LastAccessed(),
		}
		if b.State() == BackendSwappedOut && b.ctr != nil {
			if bytes, err := s.driver.ImageBytes(b.ctr.ID()); err == nil && bytes > 0 {
				mi.SnapshotBytes = bytes
				if loc, err := s.driver.ImageLocation(b.ctr.ID()); err == nil {
					mi.SnapshotLoc = loc.String()
				}
			}
		}
		out = append(out, mi)
	}
	return out
}

// GPUFree returns the total free GPU memory across the node's topology.
func (s *Server) GPUFree() int64 { return s.topo.TotalFree() }

// GPUTotal returns the total GPU memory across the node's topology.
func (s *Server) GPUTotal() int64 {
	var total int64
	for _, d := range s.topo.Devices() {
		total += d.Total()
	}
	return total
}
