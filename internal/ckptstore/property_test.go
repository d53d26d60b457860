package ckptstore

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

// This file is the delta-reassembly property test: across randomized
// checkpoint / restore / re-checkpoint / demote / promote sequences,
// a full restore of any live image must reassemble exactly the bytes of
// its base (weight) chunks plus the deltas of its latest dirty
// generation — every chunk reachable from some tier, fetched exactly
// once, totals matching the manifest. The test-side model mirrors the
// driver's chunkPlanLocked keying so the expected manifests are derived
// independently of the store under test.

// imageModel is the test's independent account of one process's image.
type imageModel struct {
	key    string
	ckey   string // content key (model name) shared across replicas
	chunks int64  // image size in chunks
	gen    int64  // dirty generation
	weight int64  // weight-region chunks (dedup across replicas)
	live   bool   // has a committed, un-released manifest
}

const propChunkBytes = int64(1 << 20)

// plan mirrors cudackpt's chunkPlanLocked: weight chunks keyed by the
// content key, pristine dynamic chunks by (ckey, "z"), dirty dynamic
// chunks by (pid, "d", gen).
func (im *imageModel) plan() []ChunkRef {
	refs := make([]ChunkRef, im.chunks)
	size := strconv.FormatInt(propChunkBytes, 10)
	gen := strconv.FormatInt(im.gen, 10)
	for i := int64(0); i < im.chunks; i++ {
		idx := strconv.FormatInt(i, 10)
		var id ChunkID
		switch {
		case i < im.weight:
			id = ChunkKey(im.ckey, "w", idx, size)
		case im.gen == 0:
			id = ChunkKey(im.ckey, "z", idx, size)
		default:
			id = ChunkKey(im.key, "d", idx, size, gen)
		}
		refs[i] = ChunkRef{ID: id, Bytes: propChunkBytes}
	}
	return refs
}

// fullRestore opens a restore session, fetches the whole range, and
// verifies the reassembly totals the manifest exactly.
func fullRestore(s *Store, im *imageModel) error {
	sess, err := s.OpenRestore(context.Background(), im.key)
	if err != nil {
		return err
	}
	total := im.chunks * propChunkBytes
	ferr := sess.FetchRange(0, total)
	sess.Close(ferr)
	if ferr != nil {
		return ferr
	}
	var got int64
	for _, n := range sess.bySource {
		got += n
	}
	if got != total {
		return fmt.Errorf("restore of %q reassembled %d bytes, manifest is %d", im.key, got, total)
	}
	for i, sc := range sess.chunks {
		if !sc.fetched {
			return fmt.Errorf("restore of %q left chunk %d unfetched", im.key, i)
		}
	}
	// Cross-check against the independently derived manifest: same
	// chunk IDs, same order.
	want := im.plan()
	if len(sess.refs) != len(want) {
		return fmt.Errorf("manifest of %q has %d chunks, model says %d", im.key, len(sess.refs), len(want))
	}
	for i := range want {
		if sess.refs[i] != want[i] {
			return fmt.Errorf("manifest of %q chunk %d = %+v, model says %+v (base+delta keying drifted)",
				im.key, i, sess.refs[i], want[i])
		}
	}
	return nil
}

// TestPropertyDeltaReassembly drives randomized operation sequences
// over a shared-content-key replica set and checks, after every
// operation, that the store self-checks and every live image fully
// reassembles from base + deltas.
func TestPropertyDeltaReassembly(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tb, _ := perfmodel.TestbedByName("h100")
			// A finite cache cap so trims happen mid-sequence.
			s := New(testClock(t), tb, WithHostCap(64*propChunkBytes))

			// Three replicas of model A (shared weights) and one of model B.
			images := []*imageModel{
				{key: "a0", ckey: "modelA", chunks: 8, weight: 5},
				{key: "a1", ckey: "modelA", chunks: 8, weight: 5},
				{key: "a2", ckey: "modelA", chunks: 8, weight: 5},
				{key: "b0", ckey: "modelB", chunks: 6, weight: 4},
			}

			for step := 0; step < 400; step++ {
				im := images[rng.Intn(len(images))]
				switch op := rng.Intn(6); {
				case op <= 1: // checkpoint (or re-checkpoint)
					refs := im.plan()
					clean := s.PlanCheckpoint(im.key, refs)
					if rng.Intn(8) == 0 {
						s.AbortCheckpoint(im.key)
					} else {
						st := s.CommitCheckpoint(context.Background(), im.key)
						if st.NewBytes+st.DedupBytes != im.chunks*propChunkBytes {
							t.Fatalf("step %d: commit bytes %d+%d != image %d",
								step, st.NewBytes, st.DedupBytes, im.chunks*propChunkBytes)
						}
						for i, c := range clean {
							if c && refs[i].Bytes == 0 {
								t.Fatalf("step %d: zero-byte clean chunk", step)
							}
						}
						im.live = true
					}
				case op == 2: // restore in place (image stays checkpointed)
					if im.live {
						if err := fullRestore(s, im); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				case op == 3: // restore out: image leaves the store, KV dirties
					if im.live {
						if err := fullRestore(s, im); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						s.Release(im.key)
						im.live = false
						im.gen++ // served traffic before the next checkpoint
					}
				case op == 4: // demote to disk
					if im.live {
						if _, _, err := s.Demote(context.Background(), im.key); err != nil {
							t.Fatalf("step %d: demote: %v", step, err)
						}
					}
				default: // promote back to host RAM
					if im.live {
						if _, _, err := s.Promote(context.Background(), im.key); err != nil {
							t.Fatalf("step %d: promote: %v", step, err)
						}
					}
				}
				if err := s.SelfCheck(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}

			// Epilogue: every live image must still fully reassemble.
			for _, im := range images {
				if im.live {
					if err := fullRestore(s, im); err != nil {
						t.Fatalf("epilogue: %v", err)
					}
				}
			}
		})
	}
}

// TestPropertyConcurrentReplicas exercises the same protocol from
// concurrent goroutines (one per replica, shared weight chunks) so the
// race detector sees the store's real interleavings.
func TestPropertyConcurrentReplicas(t *testing.T) {
	clock := testClock(t)
	tb, _ := perfmodel.TestbedByName("h100")
	s := New(clock, tb, WithHostCap(48*propChunkBytes))

	replicas := simclock.NewGroup(clock)
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		replicas.Go(func() {
			im := &imageModel{key: fmt.Sprintf("p%d", g), ckey: "modelA", chunks: 6, weight: 4}
			for iter := 0; iter < 30; iter++ {
				s.PlanCheckpoint(im.key, im.plan())
				s.CommitCheckpoint(context.Background(), im.key)
				if iter%3 == 0 {
					if _, _, err := s.Demote(context.Background(), im.key); err != nil {
						errc <- err
						return
					}
					if _, _, err := s.Promote(context.Background(), im.key); err != nil {
						errc <- err
						return
					}
				}
				if err := fullRestore(s, im); err != nil {
					errc <- err
					return
				}
				s.Release(im.key)
				im.gen++
			}
		})
	}
	replicas.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
