package ckptstore

import (
	"context"
	"fmt"
	"sort"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/obs"
	"swapservellm/internal/perfmodel"
)

// This file is the restore-source machinery: every chunk of a restoring
// (or promoting) manifest is planned against the cheapest reachable
// source under the perfmodel's calibration — local host RAM is free,
// then typically a replica's host RAM over the fabric, then local disk,
// then a replica's disk. Fetches consult the ckptstore.fetch /
// ckptstore.promote chaos sites with bounded retries, then fall back to
// the next-best source, so a torn disk read or a dropped peer
// connection degrades a restore instead of failing it.

// fetchRetries bounds per-source retries of a faulted chunk fetch
// before the planner falls back to the next-best source (mirrors the
// driver's chunk-transfer retry budget).
const fetchRetries = 3

// Source identifies where a chunk fetch reads from.
type Source int

// Restore sources, in the order used to break cost ties.
const (
	SrcHostRAM Source = iota
	SrcPeerRAM
	SrcLocalDisk
	SrcPeerDisk
)

// String returns the snake_case source name used in counters and spans.
func (s Source) String() string {
	switch s {
	case SrcHostRAM:
		return "host_ram"
	case SrcPeerRAM:
		return "peer_ram"
	case SrcLocalDisk:
		return "local_disk"
	default:
		return "peer_disk"
	}
}

// bytesAttr names the ckpt.fetch span attribute carrying each source's
// byte count ("bytes_" + source).
var bytesAttr = func() (names [SrcPeerDisk + 1]string) {
	for src := range names {
		names[src] = "bytes_" + Source(src).String()
	}
	return names
}()

// candidate is one reachable source for one chunk, with its modelled
// read cost.
type candidate struct {
	src  Source
	peer string // peer ID for SrcPeerRAM / SrcPeerDisk
	cost time.Duration
}

// sourceCost returns the modelled read time for size bytes from src.
func (s *Store) sourceCost(src Source, size int64) time.Duration {
	switch src {
	case SrcHostRAM:
		return 0
	case SrcPeerRAM:
		return s.tb.PeerRAMReadTime(size)
	case SrcLocalDisk:
		return s.tb.StorageReadTime(perfmodel.TierDisk, size)
	default:
		return s.tb.PeerDiskReadTime(size)
	}
}

// chunkState is a lock-consistent snapshot of one chunk's local tiers.
type chunkState struct {
	inHost bool
	onDisk bool
}

// planChunk appends the reachable sources for one chunk to dst, ranked
// cheapest first, and returns the extended slice; dst's own entries are
// left as they were. st is the local snapshot; peer lookups run without
// the store lock.
func (s *Store) planChunk(dst []candidate, r ChunkRef, st chunkState, peers []Peer) []candidate {
	base := len(dst)
	cands := dst
	if st.inHost {
		cands = append(cands, candidate{src: SrcHostRAM})
	}
	if st.onDisk {
		cands = append(cands, candidate{src: SrcLocalDisk, cost: s.sourceCost(SrcLocalDisk, r.Bytes)})
	}
	for _, p := range peers {
		inHost, onDisk := p.LookupChunk(r.ID)
		if inHost {
			cands = append(cands, candidate{src: SrcPeerRAM, peer: p.PeerID(), cost: s.sourceCost(SrcPeerRAM, r.Bytes)})
		} else if onDisk {
			cands = append(cands, candidate{src: SrcPeerDisk, peer: p.PeerID(), cost: s.sourceCost(SrcPeerDisk, r.Bytes)})
		}
	}
	// Stable insertion order makes ties deterministic: equal-cost
	// sources resolve by the Source ordering, then peer list order.
	for i := base + 1; i < len(cands); i++ {
		for j := i; j > base; j-- {
			a, b := cands[j-1], cands[j]
			if b.cost < a.cost || (b.cost == a.cost && b.src < a.src) {
				cands[j-1], cands[j] = b, a
			} else {
				break
			}
		}
	}
	return cands
}

// injAt consults the fault injector for manifest key without holding
// the store lock across the injector's own lock. Draws are keyed by the
// manifest, so concurrent restores draw independently of their order.
func (s *Store) injAt(site chaos.Site, key string) chaos.Outcome {
	s.mu.Lock()
	inj := s.inj
	s.mu.Unlock()
	return inj.AtFor(site, key)
}

// fetchChunk executes one chunk fetch against its ranked candidates:
// bounded retries per source (a faulted attempt burns its read time),
// then fallback to the next-best source. On success the chunk's bytes
// are cached in local host RAM. Returns the source that served it. key
// is the manifest the chunk is fetched for.
func (s *Store) fetchChunk(ctx context.Context, site chaos.Site, key string, r ChunkRef, cands []candidate) (Source, error) {
	var lastErr error
	for _, cand := range cands {
		if cand.src == SrcHostRAM || cand.src == SrcLocalDisk {
			// Local candidates re-validate against the live tier state:
			// the snapshot may predate a concurrent demotion or trim.
			s.mu.Lock()
			c, ok := s.chunks[r.ID]
			valid := ok && ((cand.src == SrcHostRAM && c.inHost) || (cand.src == SrcLocalDisk && c.onDisk))
			s.mu.Unlock()
			if !valid {
				continue
			}
		}
		if cand.src == SrcHostRAM {
			s.commitFetch(r, SrcHostRAM)
			return SrcHostRAM, nil
		}
		for attempt := 0; attempt < fetchRetries; attempt++ {
			out := s.injAt(site, key)
			if out.Err != nil {
				lastErr = out.Err
				obs.AnnotateFault(ctx, string(site), out.Err)
				// The read ran and failed; its time is burned.
				s.clock.Sleep(cand.cost)
				continue
			}
			s.clock.Sleep(cand.cost + out.Delay)
			s.commitFetch(r, cand.src)
			return cand.src, nil
		}
	}
	if lastErr != nil {
		return SrcHostRAM, fmt.Errorf("%w %s (%d bytes): last source failed: %w", ErrNoSource, r.ID, r.Bytes, lastErr)
	}
	return SrcHostRAM, fmt.Errorf("%w %s (%d bytes)", ErrNoSource, r.ID, r.Bytes)
}

// commitFetch lands a fetched chunk in the local host cache and records
// the per-source byte counter.
func (s *Store) commitFetch(r ChunkRef, src Source) {
	s.mu.Lock()
	c, ok := s.chunks[r.ID]
	if !ok {
		// A peer-sourced chunk the local store had never seen.
		c = s.newChunkLocked(r)
	}
	if !c.inHost {
		c.inHost = true
		s.hostBytes += c.bytes
	}
	c.lastUsed = s.clock.Now()
	s.seq++
	c.seq = s.seq
	s.trimCacheLocked()
	s.mu.Unlock()
	s.fetchBytes[src].Get().Add(float64(r.Bytes))
}

// RestoreSession is one planned restore of a manifest: per-chunk ranked
// sources captured at open time, fetched incrementally as the driver's
// H2D pipeline advances through the image. The session owns the
// ckpt.fetch span; callers must Close it, and use it no more after:
// the store recycles it, plan arrays and all, for a later restore.
type RestoreSession struct {
	s        *Store
	ctx      context.Context
	key      string
	refs     []ChunkRef     // the manifest's chunks, shared with it
	chunks   []sessionChunk // refs[i]'s plan
	cands    []candidate    // every chunk's sources, in one array
	span     *obs.Span
	bySource [SrcPeerDisk + 1]int64
}

// sessionChunk is a restore session's plan for one chunk.
type sessionChunk struct {
	start   int64      // image offset
	state   chunkState // local tiers at open time
	cands   []candidate
	fetched bool
}

// OpenRestore plans a restore of key's manifest: every chunk gets a
// ranked source list (local RAM free, then whatever the perfmodel says
// is fastest among peer RAM, local disk, and peer disk). Fails if any
// chunk is reachable from no source.
func (s *Store) OpenRestore(ctx context.Context, key string) (*RestoreSession, error) {
	s.mu.Lock()
	m, ok := s.manifests[key]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownManifest, key)
	}
	rs := s.sessionLocked(key, m.chunks)
	for i, r := range rs.refs {
		if c, ok := s.chunks[r.ID]; ok {
			rs.chunks[i].state = chunkState{inHost: c.inHost, onDisk: c.onDisk}
		}
	}
	peers := s.peers
	s.mu.Unlock()

	ctx, span := obs.Start(ctx, "ckpt.fetch",
		obs.String("key", key), obs.String("node", s.nodeID))
	rs.ctx, rs.span = ctx, span
	var off int64
	// Every chunk's sources come from one backing array, sized for the
	// most any chunk can have: local RAM, local disk and one per peer.
	if n := len(rs.refs) * (2 + len(peers)); cap(rs.cands) < n {
		rs.cands = make([]candidate, 0, n)
	}
	all := rs.cands[:0]
	for i, r := range rs.refs {
		sc := &rs.chunks[i]
		sc.start = off
		off += r.Bytes
		n := len(all)
		all = s.planChunk(all, r, sc.state, peers)
		sc.cands = all[n:len(all):len(all)]
		if len(sc.cands) == 0 {
			span.EndErr(fmt.Errorf("%w %s", ErrNoSource, r.ID))
			s.recycle(rs)
			return nil, fmt.Errorf("%w %s (%d bytes) of manifest %q", ErrNoSource, r.ID, r.Bytes, key)
		}
	}
	if span != nil {
		span.SetAttr(obs.Int64("bytes", off), obs.Int("chunks", len(rs.refs)))
	}
	return rs, nil
}

// FetchRange fetches every not-yet-fetched chunk whose image offset
// falls in [from, to), sleeping for the source reads. The driver calls
// this ahead of each H2D chunk so fetch time lands on the restore's
// critical path exactly where the bytes are needed.
func (rs *RestoreSession) FetchRange(from, to int64) error {
	// Chunks are in image order: start at the first one at or past from.
	i := sort.Search(len(rs.chunks), func(i int) bool { return rs.chunks[i].start >= from })
	for ; i < len(rs.chunks) && rs.chunks[i].start < to; i++ {
		sc, r := &rs.chunks[i], rs.refs[i]
		if sc.fetched {
			continue
		}
		src, err := rs.s.fetchChunk(rs.ctx, chaos.SiteCkptFetch, rs.key, r, sc.cands)
		if err != nil {
			return err
		}
		sc.fetched = true
		rs.bySource[src] += r.Bytes
	}
	return nil
}

// PlanTime returns the modelled total fetch time of the best-ranked
// sources — the perfmodel estimate a scheduler can use before starting.
func (rs *RestoreSession) PlanTime() time.Duration {
	var d time.Duration
	for _, sc := range rs.chunks {
		if len(sc.cands) > 0 {
			d += sc.cands[0].cost
		}
	}
	return d
}

// Close ends the session's ckpt.fetch span, recording the per-source
// byte split. err is the restore's outcome (nil on success).
func (rs *RestoreSession) Close(err error) {
	if rs.span != nil {
		for src, n := range rs.bySource {
			if n > 0 {
				rs.span.SetAttr(obs.Int64(bytesAttr[src], n))
			}
		}
	}
	rs.span.EndErr(err)
	rs.s.recycle(rs)
}

// sessionLocked returns a zeroed restore session of refs, reusing a
// closed one and its plan arrays when there is one. s.mu is held.
func (s *Store) sessionLocked(key string, refs []ChunkRef) *RestoreSession {
	var rs *RestoreSession
	if n := len(s.sessions); n > 0 {
		rs, s.sessions = s.sessions[n-1], s.sessions[:n-1]
	} else {
		rs = new(RestoreSession)
	}
	chunks := rs.chunks[:0]
	if cap(chunks) < len(refs) {
		chunks = make([]sessionChunk, 0, len(refs))
	}
	chunks = chunks[:len(refs)]
	clear(chunks)
	*rs = RestoreSession{s: s, key: key, refs: refs, chunks: chunks, cands: rs.cands}
	return rs
}

// recycle keeps a closed session for a later OpenRestore.
func (s *Store) recycle(rs *RestoreSession) {
	rs.ctx, rs.span = nil, nil
	s.mu.Lock()
	s.sessions = append(s.sessions, rs)
	s.mu.Unlock()
}

// Promote moves key's manifest residency from disk back to host RAM,
// fetching only the chunks not already host-resident — from whichever
// source (local disk, peer RAM, peer disk) the perfmodel ranks fastest,
// with bounded-retry fallback under the ckptstore.promote fault site.
// Chunks another hot manifest already keeps in RAM are deduplicated for
// free. Returns the bytes actually moved and the bytes deduplicated.
func (s *Store) Promote(ctx context.Context, key string) (moved, dedup int64, err error) {
	ctx, span := obs.Start(ctx, "ckpt.promote",
		obs.String("key", key), obs.String("node", s.nodeID))
	defer func() { span.EndErr(err) }()

	s.mu.Lock()
	m, ok := s.manifests[key]
	if !ok {
		s.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownManifest, key)
	}
	if m.resident == TierHost {
		s.mu.Unlock()
		return 0, 0, nil
	}
	refs := m.chunks
	states := make([]chunkState, len(refs))
	for i, r := range refs {
		if c, ok := s.chunks[r.ID]; ok {
			states[i] = chunkState{inHost: c.inHost, onDisk: c.onDisk}
		}
	}
	peers := s.peers
	s.mu.Unlock()

	// One chunk is fetched at a time, so its sources reuse one slice.
	var cands []candidate
	for i, r := range refs {
		if states[i].inHost {
			dedup += r.Bytes
			continue
		}
		cands = s.planChunk(cands[:0], r, states[i], peers)
		if len(cands) == 0 {
			return moved, dedup, fmt.Errorf("%w %s (%d bytes) of manifest %q", ErrNoSource, r.ID, r.Bytes, key)
		}
		if _, ferr := s.fetchChunk(ctx, chaos.SiteCkptPromote, key, r, cands); ferr != nil {
			return moved, dedup, ferr
		}
		moved += r.Bytes
	}

	s.mu.Lock()
	// Re-validate: the manifest may have been released or re-demoted
	// while fetching; promotion commits only against the live record.
	m, ok = s.manifests[key]
	if !ok {
		s.mu.Unlock()
		return moved, dedup, fmt.Errorf("%w: %q released mid-promotion", ErrUnknownManifest, key)
	}
	if m.resident == TierDisk {
		for _, r := range m.chunks {
			if c, ok := s.chunks[r.ID]; ok {
				c.hostRefs++
				if !c.inHost {
					// A trim raced the fetch; the promoted image must be
					// whole in RAM, so the chunk is re-pinned hot.
					c.inHost = true
					s.hostBytes += c.bytes
				}
			}
		}
		m.resident = TierHost
	}
	s.mu.Unlock()
	span.SetAttr(obs.Int64("moved_bytes", moved), obs.Int64("dedup_bytes", dedup))
	s.reg.Counter("ckpt_promote_bytes_moved").Add(float64(moved))
	s.reg.Counter("ckpt_promote_bytes_dedup").Add(float64(dedup))
	return moved, dedup, nil
}
