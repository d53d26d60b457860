package cudackpt

import (
	"swapservellm/internal/ckptstore"
)

// This file wires the driver to the content-addressed checkpoint store
// (internal/ckptstore). With a store attached, every checkpoint image
// is decomposed into the driver's transfer chunks and addressed by
// content identity:
//
//   - the weight region [0, weightBytes) is keyed by the process's
//     content key (the model name), so replicas of one model share
//     weight chunks across images — and across nodes, which is what
//     makes peer-to-peer restore fetch work;
//   - the dynamic region (KV cache, activations) is keyed by the
//     content key while pristine (dirty generation 0 — the post-init
//     state is model-determined) and by (pid, generation) once the
//     engine has served traffic (MarkDirty).
//
// Re-checkpointing a model whose chunks are all still resident skips
// every D2H copy: the steady-state swap-out of an idle model is a
// near-no-op (delta checkpoint). The driver's logical per-image ledger
// (host/disk usage, pledges, the conservation invariant) is untouched;
// the store keeps the physical deduplicated ledger underneath it. All
// new behavior is gated on AttachStore — a driver without a store is
// byte-for-byte the pre-store engine.

// AttachStore installs the content-addressed checkpoint store under the
// driver. Checkpoints then commit chunk manifests, restores are planned
// per chunk against the cheapest source (local RAM, peer RAM, local
// disk, peer disk), and spills demote by chunk reference instead of
// whole-image writes.
func (d *Driver) AttachStore(s *ckptstore.Store) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.store = s
}

// Store returns the attached checkpoint store (nil when detached).
func (d *Driver) Store() *ckptstore.Store {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store
}

// SetContentKey names pid's weight content (typically the model name).
// Processes sharing a content key deduplicate their weight-region
// chunks; without one, chunks are keyed by pid and dedup only covers
// repeated checkpoints of the same process.
func (d *Driver) SetContentKey(pid, key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, err := d.get(pid)
	if err != nil {
		return err
	}
	p.ckey = key
	return nil
}

// MarkDirty records that pid's dynamic GPU region (KV cache) changed —
// the server calls this when a request completes. The next checkpoint
// re-keys the dynamic chunks so their stale content is not reused;
// weight chunks stay clean. Unknown pids are ignored (the backend may
// already be unregistering).
func (d *Driver) MarkDirty(pid string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.procs[pid]; ok {
		p.dirtyGen++
	}
}

// chunkPlanLocked builds pid's content-addressed manifest for an image
// of the given size, cut at the driver's transfer-chunk granularity.
// Planning at a new dirty generation re-keys every dynamic chunk, so the
// previous generation's dynamic chunks can never match again: the store
// forgets them rather than caching them forever. Caller holds d.mu.
func (d *Driver) chunkPlanLocked(p *proc, bytes int64) []ckptstore.ChunkRef {
	ckey := p.ckey
	if ckey == "" {
		ckey = p.pid
	}
	// The region prefixes (content key or pid, then tag) are hashed
	// once; each chunk adds its index and size (and the generation).
	k := ckptstore.NewKeyHash()
	weights, zeros, dirty := k.Part(ckey).Part("w"), k.Part(ckey).Part("z"), k.Part(p.pid).Part("d")
	refs := make([]ckptstore.ChunkRef, 0, (bytes-1)/d.chunkBytes+1)
	if p.dirtyGen != p.dynGen {
		d.store.Forget(p.dynIDs)
	}
	// Forget has consumed the last plan's IDs: reuse their array.
	dyn := p.dynIDs[:0]
	var off int64
	for i := int64(0); off < bytes; i++ {
		c := min(d.chunkBytes, bytes-off)
		var id ckptstore.ChunkID
		switch {
		case off+c <= p.weightBytes:
			id = weights.Int(i).Int(c).ID()
		case p.dirtyGen == 0:
			id = zeros.Int(i).Int(c).ID()
		default:
			id = dirty.Int(i).Int(c).Int(p.dirtyGen).ID()
			dyn = append(dyn, id)
		}
		refs = append(refs, ckptstore.ChunkRef{ID: id, Bytes: c})
		off += c
	}
	p.dynIDs, p.dynGen = dyn, p.dirtyGen
	return refs
}
