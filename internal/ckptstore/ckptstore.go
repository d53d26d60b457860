// Package ckptstore is the content-addressed, multi-tier checkpoint
// substrate underneath the cuda-checkpoint driver (ServerlessLLM's
// checkpoint store, PAPERS.md). Checkpoint images are decomposed into
// fixed-size chunks identified by a content key: chunks shared across
// models, versions, and repeated checkpoints of the same process are
// stored once and refcounted. The store tracks two local tiers — host
// RAM and disk — plus peer nodes' stores as remote restore sources, and
// plans every restore per chunk against the perfmodel's tier/link
// calibration: a chunk already in local host RAM is free, and a chunk
// in a replica's host RAM across the fabric beats the local NVMe read.
//
// The store keeps the *physical* (deduplicated) ledger; the driver's
// logical per-image accounting (host cap, disk usage, the invariant
// checker's conservation sums) is unchanged. Physical usage is always
// at most the logical usage for live images; chunks whose last
// reference is released stay cached in their tier (LRU-evicted under
// the host cap) which is what makes re-checkpointing a previously
// swapped model a near-no-op: the unchanged chunks are still resident,
// so the driver skips their D2H copy entirely (delta checkpoints).
package ckptstore

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/metrics"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

// Tier identifies a local storage tier in the GPU→host→disk ladder
// (the GPU end lives in the driver; the store manages the host and
// disk rungs).
type Tier int

// Local tiers.
const (
	// TierHost: chunk bytes resident in host RAM — restore reads are
	// free (the H2D copy is the only cost).
	TierHost Tier = iota
	// TierDisk: chunk bytes on local disk — restore pays the calibrated
	// disk read.
	TierDisk
)

// String returns the lowercase tier name.
func (t Tier) String() string {
	if t == TierDisk {
		return "disk"
	}
	return "host"
}

// ChunkID is a content address: equal IDs mean equal chunk payloads, so
// the store keeps one copy however many images reference it. The ID is
// the 64-bit hash itself; String renders it as text.
type ChunkID uint64

// String renders the ID as 16 lowercase hex digits.
func (id ChunkID) String() string {
	var buf [16]byte
	for i := len(buf) - 1; i >= 0; i-- {
		buf[i] = "0123456789abcdef"[id&0xf]
		id >>= 4
	}
	return string(buf[:])
}

// ChunkKey derives a ChunkID from identity components (model content
// key, region tag, chunk index, dirt generation). FNV-64a over the parts,
// each NUL-terminated, stands in for the payload hash the real system
// computes — the simulation addresses content by provenance, which is
// exact for the regions it models.
func ChunkKey(parts ...string) ChunkID {
	h := NewKeyHash()
	for _, p := range parts {
		h = h.Part(p)
	}
	return h.ID()
}

// KeyHash is ChunkKey computed part by part, so a caller keying many
// chunks builds no part strings: h.Part(a).Int(n).ID() equals
// ChunkKey(a, strconv.FormatInt(n, 10)).
type KeyHash uint64

const fnvPrime64 = 1099511628211

// NewKeyHash returns the hash of no parts.
func NewKeyHash() KeyHash { return 14695981039346656037 }

// Part hashes one more part.
func (h KeyHash) Part(p string) KeyHash {
	for i := 0; i < len(p); i++ {
		h = (h ^ KeyHash(p[i])) * fnvPrime64
	}
	return h * fnvPrime64 // the NUL terminator: h ^ 0 == h
}

// Int hashes the decimal rendering of n as one more part.
func (h KeyHash) Int(n int64) KeyHash {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], n, 10) {
		h = (h ^ KeyHash(c)) * fnvPrime64
	}
	return h * fnvPrime64
}

// ID returns the hash as a ChunkID.
func (h KeyHash) ID() ChunkID { return ChunkID(h) }

// ChunkRef is one chunk of an image manifest, in image order.
type ChunkRef struct {
	ID    ChunkID
	Bytes int64
}

// chunk is the store's record of one content-addressed payload. A
// *chunk never escapes s.mu: a record dropped from Store.chunks goes to
// Store.free and comes back, zeroed, as some other payload's record, so
// one held past Unlock could name a different chunk by then.
type chunk struct {
	id    ChunkID
	bytes int64
	// refs counts manifests (live images) referencing the chunk,
	// whatever their residency. pins counts in-flight checkpoint plans
	// that promised to skip this chunk's transfer — the host copy must
	// survive until they commit or abort.
	refs int
	pins int
	// hostRefs counts host-resident manifests referencing the chunk: a
	// chunk with hostRefs > 0 is load-bearing for a RAM image and is
	// never dropped from host RAM by demotion or cache trimming.
	hostRefs int
	inHost   bool
	onDisk   bool
	lastUsed time.Time
	seq      int64 // LRU tiebreak, deterministic under the virtual clock
}

// manifest is one live checkpoint image: an ordered chunk list, its
// logical size (the chunks' bytes summed) and the tier its restore reads
// from by default. chunks is never modified once committed, so a
// restore may keep reading it after s.mu is released.
type manifest struct {
	key      string
	chunks   []ChunkRef
	size     int64
	resident Tier
}

// Peer is a remote restore source: another node's store (or any stand-in
// implementing the lookup). Lookups are made without holding the calling
// store's lock, so two stores may consult each other concurrently.
type Peer interface {
	// PeerID names the peer for traces and counters.
	PeerID() string
	// LookupChunk reports whether the peer holds id in host RAM and/or
	// on disk.
	LookupChunk(id ChunkID) (inHost, onDisk bool)
}

// pending is an in-flight checkpoint plan: the chunk set the driver is
// transferring, with the clean (transfer-skipped) chunks pinned.
type pending struct {
	refs  []ChunkRef
	clean []bool // clean[i]: refs[i] is pinned
}

// Store is one node's checkpoint store. All methods are safe for
// concurrent use; simulated sleeps happen outside the lock.
type Store struct {
	clock  simclock.Clock
	tb     perfmodel.Testbed
	nodeID string
	reg    *metrics.Registry
	inj    *chaos.Injector
	// fetchBytes counts the bytes fetched from each Source
	// ("ckpt_fetch_bytes_" + source).
	fetchBytes [SrcPeerDisk + 1]*metrics.Handle[metrics.Counter]

	mu        sync.Mutex
	chunks    map[ChunkID]*chunk
	manifests map[string]*manifest
	pendings  map[string]pending
	peers     []Peer
	hostCap   int64
	hostBytes int64 // physical bytes resident in host RAM
	diskBytes int64 // physical bytes resident on disk
	seq       int64
	// free holds dropped chunk records for reuse (see chunk). It never
	// outgrows the peak number of live chunks.
	free []*chunk
	// victims is trimCacheLocked's scratch list, kept for its array.
	victims []*chunk
	// logicalBytes and uniqueBytes are Stats' running totals: the live
	// manifests' sizes, and each chunk with refs > 0 counted once.
	// Commits and releases keep them, where a manifest comes or goes and
	// a chunk's refs crosses zero.
	logicalBytes int64
	uniqueBytes  int64
}

// Option configures a Store.
type Option func(*Store)

// WithRegistry publishes the store's per-tier byte counters into reg.
func WithRegistry(reg *metrics.Registry) Option {
	return func(s *Store) { s.reg = reg }
}

// WithChaos installs the fault injector consulted at the
// ckptstore.fetch and ckptstore.promote sites.
func WithChaos(inj *chaos.Injector) Option {
	return func(s *Store) { s.inj = inj }
}

// WithNodeID names the store in traces and peer lookups.
func WithNodeID(id string) Option {
	return func(s *Store) { s.nodeID = id }
}

// WithHostCap bounds the physical host-RAM bytes the store caches;
// unreferenced chunks are LRU-evicted beyond it (0 = unlimited).
func WithHostCap(capBytes int64) Option {
	return func(s *Store) { s.hostCap = capBytes }
}

// New builds a store timing tier moves against tb on clock.
func New(clock simclock.Clock, tb perfmodel.Testbed, opts ...Option) *Store {
	s := &Store{
		clock:     clock,
		tb:        tb,
		nodeID:    "local",
		chunks:    make(map[ChunkID]*chunk),
		manifests: make(map[string]*manifest),
		pendings:  make(map[string]pending),
	}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	for src := range s.fetchBytes {
		s.fetchBytes[src] = s.reg.CounterHandle("ckpt_fetch_bytes_" + Source(src).String())
	}
	return s
}

// PeerID implements Peer so stores can be wired to each other directly.
func (s *Store) PeerID() string { return s.nodeID }

// LookupChunk implements Peer.
func (s *Store) LookupChunk(id ChunkID) (inHost, onDisk bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chunks[id]
	if !ok {
		return false, false
	}
	return c.inHost, c.onDisk
}

// SetPeers installs the remote restore sources consulted by restore and
// promotion planning.
func (s *Store) SetPeers(peers []Peer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = peers
}

// SetChaos installs (or, with nil, removes) the fault injector.
func (s *Store) SetChaos(inj *chaos.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
}

// PlanCheckpoint registers an in-flight checkpoint for key and reports,
// per chunk, whether its content is already resident in local host RAM —
// the driver skips the D2H transfer for those (delta checkpoint). Clean
// chunks are pinned so concurrent demotion or cache trimming cannot drop
// their host copy before the checkpoint commits. Every plan must be
// closed by CommitCheckpoint or AbortCheckpoint. The store takes
// ownership of refs, and keeps the returned slice until then: the caller
// must modify neither.
func (s *Store) PlanCheckpoint(key string, refs []ChunkRef) []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	clean := make([]bool, len(refs))
	for i, r := range refs {
		c, ok := s.chunks[r.ID]
		if ok && c.inHost {
			clean[i] = true
			c.pins++
		}
	}
	s.pendings[key] = pending{refs: refs, clean: clean}
	return clean
}

// AbortCheckpoint drops key's in-flight plan, unpinning its clean
// chunks. The store is left exactly as before PlanCheckpoint.
func (s *Store) AbortCheckpoint(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.abortLocked(key)
}

func (s *Store) abortLocked(key string) {
	p, ok := s.pendings[key]
	if !ok {
		return
	}
	for i, r := range p.refs {
		if p.clean[i] {
			s.chunks[r.ID].pins-- // a pinned chunk is never dropped
		}
	}
	delete(s.pendings, key)
}

// PutStats reports a committed checkpoint's dedup outcome.
type PutStats struct {
	// NewBytes were not resident and landed via the driver's D2H copy.
	NewBytes int64
	// DedupBytes were already host-resident; their transfer was skipped.
	DedupBytes int64
	// Chunks is the manifest length.
	Chunks int
}

// CommitCheckpoint finalizes key's in-flight plan into a host-resident
// manifest, replacing any previous manifest under the same key (a
// re-checkpoint). Returns the dedup stats and emits the ckpt.dedup span
// plus the ckpt_dedup_bytes / ckpt_new_bytes counters.
func (s *Store) CommitCheckpoint(ctx context.Context, key string) PutStats {
	_, span := obs.Start(ctx, "ckpt.dedup",
		obs.String("key", key), obs.String("node", s.nodeID))
	s.mu.Lock()
	// Without a plan, p is empty: the commit stores an empty manifest.
	p := s.pendings[key]
	s.abortLocked(key)
	if old, ok := s.manifests[key]; ok {
		s.releaseLocked(old)
	}
	var st PutStats
	st.Chunks = len(p.refs)
	now := s.clock.Now()
	var size int64
	for _, r := range p.refs {
		size += r.Bytes
		c, ok := s.chunks[r.ID]
		if !ok {
			c = s.newChunkLocked(r)
		}
		if c.inHost {
			st.DedupBytes += r.Bytes
		} else {
			c.inHost = true
			s.hostBytes += r.Bytes
			st.NewBytes += r.Bytes
		}
		if c.refs == 0 {
			s.uniqueBytes += c.bytes
		}
		c.refs++
		c.hostRefs++
		c.lastUsed = now
		s.seq++
		c.seq = s.seq
	}
	s.manifests[key] = &manifest{key: key, chunks: p.refs, size: size, resident: TierHost}
	s.logicalBytes += size
	s.trimCacheLocked()
	s.mu.Unlock()
	if span != nil {
		span.SetAttr(
			obs.Int64("new_bytes", st.NewBytes),
			obs.Int64("dedup_bytes", st.DedupBytes),
			obs.Int("chunks", st.Chunks))
	}
	span.End()
	s.reg.Counter("ckpt_dedup_bytes").Add(float64(st.DedupBytes))
	s.reg.Counter("ckpt_new_bytes").Add(float64(st.NewBytes))
	return st
}

// Release drops key's manifest after its image left the store (the
// restore completed, or the process unregistered). Chunk references are
// decremented; fully unreferenced chunks stay cached in their tier —
// the delta-checkpoint working set — until trimmed under the host cap.
func (s *Store) Release(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[key]
	if !ok {
		return
	}
	s.releaseLocked(m)
	delete(s.manifests, key)
}

func (s *Store) releaseLocked(m *manifest) {
	s.logicalBytes -= m.size
	for _, r := range m.chunks {
		c, ok := s.chunks[r.ID]
		if !ok {
			continue
		}
		if c.refs--; c.refs == 0 {
			s.uniqueBytes -= c.bytes
		}
		if m.resident == TierHost {
			c.hostRefs--
		}
	}
}

// Forget drops the listed chunks from every tier unless a live manifest
// references them or an in-flight checkpoint pins them: content nobody
// can ask for again, such as a process's dynamic chunks from a
// superseded dirty generation.
func (s *Store) Forget(ids []ChunkID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		c, ok := s.chunks[id]
		if !ok || c.refs > 0 || c.pins > 0 {
			continue
		}
		if c.inHost {
			s.hostBytes -= c.bytes
		}
		if c.onDisk {
			s.diskBytes -= c.bytes
		}
		s.dropChunkLocked(c)
	}
}

// newChunkLocked registers a record for r's payload, resident in no
// tier, reusing a dropped record when there is one. Caller holds s.mu.
func (s *Store) newChunkLocked(r ChunkRef) *chunk {
	var c *chunk
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		c = new(chunk)
	}
	*c = chunk{id: r.ID, bytes: r.Bytes}
	s.chunks[r.ID] = c
	return c
}

// dropChunkLocked removes c from the store and zeroes it onto the free
// list. Caller holds s.mu.
func (s *Store) dropChunkLocked(c *chunk) {
	delete(s.chunks, c.id)
	*c = chunk{}
	s.free = append(s.free, c)
}

// Demote moves key's manifest residency from host RAM to disk, dropping
// the host copy of every chunk this manifest alone keeps hot. Chunks
// shared with another host-resident manifest (or pinned by an in-flight
// checkpoint) keep their host copy — the shared-chunk guarantee the
// spill LRU relies on. Returns the bytes written to disk and the write
// time the caller must sleep.
func (s *Store) Demote(ctx context.Context, key string) (written int64, sleep time.Duration, err error) {
	s.mu.Lock()
	m, ok := s.manifests[key]
	if !ok {
		s.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownManifest, key)
	}
	if m.resident == TierDisk {
		s.mu.Unlock()
		return 0, 0, nil
	}
	var dropped int64
	for _, r := range m.chunks {
		c := s.chunks[r.ID]
		c.hostRefs--
		if c.hostRefs > 0 || c.pins > 0 || !c.inHost {
			continue
		}
		if !c.onDisk {
			c.onDisk = true
			s.diskBytes += c.bytes
			written += c.bytes
		}
		c.inHost = false
		s.hostBytes -= c.bytes
		dropped += c.bytes
	}
	m.resident = TierDisk
	s.mu.Unlock()
	// Only the bytes actually written pay the disk-tier write; chunks
	// already on disk (from an earlier demotion) are free.
	sleep = s.tb.StorageReadTime(perfmodel.TierDisk, written)
	s.reg.Counter("ckpt_demote_bytes").Add(float64(written))
	s.reg.Counter("ckpt_demote_shared_kept_bytes").Add(float64(m.size - dropped))
	return written, sleep, nil
}

// Resident reports where key's manifest restore reads from by default.
func (s *Store) Resident(key string) (Tier, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[key]
	if !ok {
		return TierHost, false
	}
	return m.resident, true
}

// MissingHostBytes returns how many of key's manifest bytes are not in
// local host RAM — what a promotion would actually move. Zero for a
// fully host-resident (or unknown) manifest.
func (s *Store) MissingHostBytes(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[key]
	if !ok {
		return 0
	}
	var missing int64
	for _, r := range m.chunks {
		if c, ok := s.chunks[r.ID]; !ok || !c.inHost {
			missing += r.Bytes
		}
	}
	return missing
}

// HostChunkFrac returns the fraction of key's manifest bytes resident
// in local host RAM (1 for fully hot, 0 for unknown or fully cold) —
// the chunk-locality signal the cluster placement layer advertises.
func (s *Store) HostChunkFrac(key string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[key]
	if !ok {
		return 0
	}
	total := m.size
	if total == 0 {
		return 1
	}
	var hot int64
	for _, r := range m.chunks {
		if c, ok := s.chunks[r.ID]; ok && c.inHost {
			hot += r.Bytes
		}
	}
	return float64(hot) / float64(total)
}

// Stats is a consistent snapshot of the store's physical ledger.
type Stats struct {
	// Manifests is the live image count; Chunks the distinct chunk count.
	Manifests int
	Chunks    int
	// HostBytes / DiskBytes are physical (deduplicated) tier footprints.
	HostBytes int64
	DiskBytes int64
	// LogicalBytes sums every live manifest's size — what the tiers
	// would hold without dedup.
	LogicalBytes int64
	// UniqueBytes sums each referenced chunk once.
	UniqueBytes int64
}

// DedupRatio is logical over unique bytes (1 = no sharing).
func (st Stats) DedupRatio() float64 {
	if st.UniqueBytes == 0 {
		return 1
	}
	return float64(st.LogicalBytes) / float64(st.UniqueBytes)
}

// Stats returns the current physical ledger snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Manifests: len(s.manifests), Chunks: len(s.chunks),
		HostBytes: s.hostBytes, DiskBytes: s.diskBytes,
		LogicalBytes: s.logicalBytes, UniqueBytes: s.uniqueBytes}
}

// trimCacheLocked LRU-evicts unreferenced, unpinned cached chunks from
// host RAM until physical usage fits the cap. Chunks holding a live
// image's only copy are never touched. Caller holds s.mu.
func (s *Store) trimCacheLocked() {
	if s.hostCap <= 0 || s.hostBytes <= s.hostCap {
		return
	}
	victims := s.victims[:0]
	for _, c := range s.chunks {
		if c.inHost && c.refs == 0 && c.pins == 0 {
			victims = append(victims, c)
		}
	}
	// seq is unique per record, so the order is total: map iteration
	// order cannot leak into which chunks go.
	slices.SortFunc(victims, func(a, b *chunk) int {
		if c := a.lastUsed.Compare(b.lastUsed); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	s.victims = victims
	for _, c := range victims {
		if s.hostBytes <= s.hostCap {
			return
		}
		c.inHost = false
		s.hostBytes -= c.bytes
		s.reg.Counter("ckpt_cache_evicted_bytes").Add(float64(c.bytes))
		if !c.onDisk {
			s.dropChunkLocked(c)
		}
	}
}

// SelfCheck verifies the store's internal invariants: tier byte totals
// match the chunk flags, refcounts match the manifest lists, the logical
// and unique byte totals match a walk of the manifests and the
// referenced chunks, no count is negative, and every live manifest's
// chunks are reachable from its resident tier (host-resident ⇒ in host
// RAM; disk-resident ⇒ on disk or still cached in RAM). The chaos soak
// calls this after every operation.
func (s *Store) SelfCheck() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var host, disk, logical, unique int64
	refs := make(map[ChunkID]int)
	hostRefs := make(map[ChunkID]int)
	for id, c := range s.chunks {
		if c.refs < 0 || c.hostRefs < 0 || c.pins < 0 {
			return fmt.Errorf("ckptstore: chunk %s has negative counts refs=%d hostRefs=%d pins=%d",
				id, c.refs, c.hostRefs, c.pins)
		}
		if c.inHost {
			host += c.bytes
		}
		if c.onDisk {
			disk += c.bytes
		}
		if !c.inHost && !c.onDisk {
			return fmt.Errorf("ckptstore: chunk %s resident in no tier", id)
		}
		if c.refs > 0 {
			unique += c.bytes
		}
	}
	if host != s.hostBytes || disk != s.diskBytes {
		return fmt.Errorf("ckptstore: tier totals host=%d disk=%d, chunks sum host=%d disk=%d",
			s.hostBytes, s.diskBytes, host, disk)
	}
	for key, m := range s.manifests {
		for _, r := range m.chunks {
			logical += r.Bytes
			c, ok := s.chunks[r.ID]
			if !ok {
				return fmt.Errorf("ckptstore: manifest %q references missing chunk %s", key, r.ID)
			}
			if c.bytes != r.Bytes {
				return fmt.Errorf("ckptstore: manifest %q chunk %s size %d != stored %d", key, r.ID, r.Bytes, c.bytes)
			}
			refs[r.ID]++
			if m.resident == TierHost {
				hostRefs[r.ID]++
				if !c.inHost {
					return fmt.Errorf("ckptstore: host-resident manifest %q chunk %s not in host RAM", key, r.ID)
				}
			}
		}
	}
	if logical != s.logicalBytes || unique != s.uniqueBytes {
		return fmt.Errorf("ckptstore: running totals logical=%d unique=%d, manifests and chunks sum logical=%d unique=%d",
			s.logicalBytes, s.uniqueBytes, logical, unique)
	}
	for id, c := range s.chunks {
		if c.refs != refs[id] {
			return fmt.Errorf("ckptstore: chunk %s refs=%d, manifests reference it %d times", id, c.refs, refs[id])
		}
		if c.hostRefs != hostRefs[id] {
			return fmt.Errorf("ckptstore: chunk %s hostRefs=%d, host manifests reference it %d times", id, c.hostRefs, hostRefs[id])
		}
	}
	return nil
}
