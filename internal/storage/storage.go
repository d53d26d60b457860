// Package storage simulates the model-weight storage tiers compared in
// Figure 5 of the paper: the default disk store and a memory-backed
// (tmpfs) filesystem. Reads take the calibrated time for the tier and blob
// size, enacted on the simulation clock, so engines loading weights
// experience the same I/O bottlenecks the paper measures.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"swapservellm/internal/chaos"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

// Errors returned by the store.
var (
	ErrNotFound = errors.New("storage: blob not found")
	ErrExists   = errors.New("storage: blob already exists")
	// ErrTorn marks a blob whose write was interrupted: the partial file
	// occupies the name but cannot be read. Recover by re-Putting it.
	ErrTorn = errors.New("storage: torn blob")
)

// Blob is one stored model-weight file (GGUF or safetensors shard set).
type Blob struct {
	Name  string
	Bytes int64
	Tier  perfmodel.StorageTier
	// Torn marks a partial blob left behind by an interrupted write;
	// reads fail until the blob is re-Put.
	Torn bool
}

// ModelStore holds model weights across tiers and simulates read latency.
// All methods are safe for concurrent use; reads on distinct blobs proceed
// concurrently.
type ModelStore struct {
	clock   simclock.Clock
	testbed perfmodel.Testbed

	mu       sync.RWMutex
	blobs    map[string]Blob
	chaosInj *chaos.Injector
}

// SetChaos installs (or, with nil, removes) the fault injector. Reads
// consult chaos.SiteStorageRead (error or extra latency); writes
// consult chaos.SiteStorageWrite — a fired fault tears the write,
// leaving an unreadable partial blob that a retried Put replaces.
func (s *ModelStore) SetChaos(in *chaos.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chaosInj = in
}

// NewModelStore creates an empty store timed against tb on clock.
func NewModelStore(clock simclock.Clock, tb perfmodel.Testbed) *ModelStore {
	return &ModelStore{clock: clock, testbed: tb, blobs: make(map[string]Blob)}
}

// Put registers a blob. Storing a duplicate name fails.
func (s *ModelStore) Put(name string, bytes int64, tier perfmodel.StorageTier) error {
	if bytes <= 0 {
		return fmt.Errorf("storage: blob %q must have positive size", name)
	}
	if tier != perfmodel.TierDisk && tier != perfmodel.TierTmpfs {
		return fmt.Errorf("storage: unknown tier %q", tier)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, dup := s.blobs[name]; dup && !prev.Torn {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	if err := s.chaosInj.AtFor(chaos.SiteStorageWrite, name).Err; err != nil {
		// Torn write: the partial file occupies the name but is useless.
		s.blobs[name] = Blob{Name: name, Bytes: bytes, Tier: tier, Torn: true}
		return fmt.Errorf("storage: writing %s: %w", name, errors.Join(ErrTorn, err))
	}
	s.blobs[name] = Blob{Name: name, Bytes: bytes, Tier: tier}
	return nil
}

// Stat returns a blob's metadata without reading it.
func (s *ModelStore) Stat(name string) (Blob, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[name]
	if !ok {
		return Blob{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return b, nil
}

// Read simulates reading the blob fully (storage read at the tier's
// effective bandwidth) and returns its metadata. Torn blobs are
// unreadable until re-Put.
func (s *ModelStore) Read(name string) (Blob, error) {
	b, err := s.Stat(name)
	if err != nil {
		return Blob{}, err
	}
	if b.Torn {
		return Blob{}, fmt.Errorf("%w: %s", ErrTorn, name)
	}
	s.mu.RLock()
	out := s.chaosInj.AtFor(chaos.SiteStorageRead, name)
	s.mu.RUnlock()
	if out.Err != nil {
		return Blob{}, fmt.Errorf("storage: reading %s: %w", name, out.Err)
	}
	s.clock.Sleep(s.testbed.StorageReadTime(b.Tier, b.Bytes) + out.Delay)
	return b, nil
}

// Promote moves a blob to another tier (e.g. staging weights into tmpfs),
// simulating the copy time: a read at the source tier's bandwidth.
func (s *ModelStore) Promote(name string, tier perfmodel.StorageTier) error {
	b, err := s.Stat(name)
	if err != nil {
		return err
	}
	if b.Torn {
		return fmt.Errorf("%w: %s", ErrTorn, name)
	}
	if b.Tier == tier {
		return nil
	}
	s.clock.Sleep(s.testbed.StorageReadTime(b.Tier, b.Bytes))
	s.mu.Lock()
	defer s.mu.Unlock()
	b.Tier = tier
	s.blobs[name] = b
	return nil
}

// Delete removes a blob.
func (s *ModelStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.blobs, name)
	return nil
}

// List returns all blobs sorted by name.
func (s *ModelStore) List() []Blob {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Blob, 0, len(s.blobs))
	for _, b := range s.blobs {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TierUsage returns the total bytes stored per tier.
func (s *ModelStore) TierUsage() map[perfmodel.StorageTier]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	usage := make(map[perfmodel.StorageTier]int64, 2)
	for _, b := range s.blobs {
		usage[b.Tier] += b.Bytes
	}
	return usage
}
