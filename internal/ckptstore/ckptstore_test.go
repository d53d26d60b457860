package ckptstore

import (
	"context"
	"errors"
	"math"
	"strconv"
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/metrics"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

var testEpoch = time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)

// testClock returns a Virtual clock with the calling test goroutine
// registered on its gate until the test's cleanups finish: sleeps cost
// no wall time and advance the simulated clock deterministically.
func testClock(t *testing.T) *simclock.Virtual {
	t.Helper()
	clock := simclock.NewVirtual(testEpoch)
	gate := clock.Gate()
	gate.Enter()
	t.Cleanup(gate.Exit)
	return clock
}

// testStore builds a store on testClock.
func testStore(t *testing.T, opts ...Option) *Store {
	t.Helper()
	tb, _ := perfmodel.TestbedByName("h100")
	return New(testClock(t), tb, opts...)
}

// refsFor builds an n-chunk manifest of size bytes each, keyed by name.
func refsFor(name string, n int, bytes int64) []ChunkRef {
	refs := make([]ChunkRef, n)
	for i := range refs {
		refs[i] = ChunkRef{ID: ChunkKey(name, "w", strconv.Itoa(i)), Bytes: bytes}
	}
	return refs
}

// checkpoint runs the full plan/commit protocol for key.
func checkpoint(s *Store, key string, refs []ChunkRef) PutStats {
	s.PlanCheckpoint(key, refs)
	return s.CommitCheckpoint(context.Background(), key)
}

func mustSelfCheck(t *testing.T, s *Store) {
	t.Helper()
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkKeyDeterministicAndDistinct(t *testing.T) {
	a := ChunkKey("model", "w", "0")
	if a != ChunkKey("model", "w", "0") {
		t.Fatal("equal parts produced different IDs")
	}
	for _, other := range [][]string{
		{"model", "w", "1"},
		{"model", "z", "0"},
		{"model2", "w", "0"},
		{"modelw", "0"}, // separator must prevent part-boundary collisions
	} {
		if ChunkKey(other...) == a {
			t.Fatalf("parts %v collided with [model w 0]", other)
		}
	}
}

func TestCommitDedupAcrossKeys(t *testing.T) {
	s := testStore(t)
	refs := refsFor("m", 4, 100)

	st1 := checkpoint(s, "a", refs)
	if st1.NewBytes != 400 || st1.DedupBytes != 0 {
		t.Fatalf("first commit: %+v", st1)
	}
	// A second image with identical content stores nothing new.
	st2 := checkpoint(s, "b", refs)
	if st2.NewBytes != 0 || st2.DedupBytes != 400 {
		t.Fatalf("second commit: %+v", st2)
	}
	stats := s.Stats()
	if stats.HostBytes != 400 || stats.LogicalBytes != 800 || stats.UniqueBytes != 400 {
		t.Fatalf("stats: %+v", stats)
	}
	if r := stats.DedupRatio(); r != 2 {
		t.Fatalf("dedup ratio = %v, want 2", r)
	}
	mustSelfCheck(t, s)
}

func TestPlanReportsCleanChunksAfterRelease(t *testing.T) {
	s := testStore(t)
	refs := refsFor("m", 3, 50)
	checkpoint(s, "a", refs)

	// Restore completes: the manifest is released but the chunk payloads
	// stay cached — the delta-checkpoint working set.
	s.Release("a")
	mustSelfCheck(t, s)

	clean := s.PlanCheckpoint("a", refs)
	for i, c := range clean {
		if !c {
			t.Fatalf("chunk %d not clean after release+replan", i)
		}
	}
	st := s.CommitCheckpoint(context.Background(), "a")
	if st.NewBytes != 0 || st.DedupBytes != 150 {
		t.Fatalf("re-checkpoint after release: %+v", st)
	}
	mustSelfCheck(t, s)
}

func TestDemoteKeepsSharedChunksHot(t *testing.T) {
	s := testStore(t)
	shared := refsFor("m", 2, 100)
	extra := ChunkRef{ID: ChunkKey("a", "d", "0"), Bytes: 60}

	checkpoint(s, "a", append(append([]ChunkRef(nil), shared...), extra))
	checkpoint(s, "b", shared)

	written, sleep, err := s.Demote(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	// Only a's exclusive chunk goes to disk; the two chunks shared with
	// host-resident b keep their host copies.
	if written != 60 {
		t.Fatalf("written = %d, want 60", written)
	}
	if sleep <= 0 {
		t.Fatal("demote of non-empty exclusive set must cost time")
	}
	if tier, ok := s.Resident("a"); !ok || tier != TierDisk {
		t.Fatalf("a resident = %v/%v", tier, ok)
	}
	for _, r := range shared {
		if inHost, _ := s.LookupChunk(r.ID); !inHost {
			t.Fatalf("shared chunk %s lost its host copy", r.ID)
		}
	}
	if inHost, onDisk := s.LookupChunk(extra.ID); inHost || !onDisk {
		t.Fatalf("exclusive chunk host=%v disk=%v, want disk only", inHost, onDisk)
	}
	mustSelfCheck(t, s)

	// Promoting back moves only the exclusive chunk; shared bytes dedup.
	moved, dedup, err := s.Promote(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 60 || dedup != 200 {
		t.Fatalf("promote moved=%d dedup=%d, want 60/200", moved, dedup)
	}
	if tier, _ := s.Resident("a"); tier != TierHost {
		t.Fatal("a not host-resident after promote")
	}
	mustSelfCheck(t, s)
}

func TestPinPreventsDemotionDrop(t *testing.T) {
	s := testStore(t)
	refs := refsFor("m", 2, 100)
	checkpoint(s, "a", refs)

	// An in-flight delta checkpoint of b pinned a's chunks as clean.
	clean := s.PlanCheckpoint("b", refs)
	if !clean[0] || !clean[1] {
		t.Fatal("chunks not clean for b")
	}
	// Demoting a must not drop the pinned host copies.
	if _, _, err := s.Demote(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if inHost, _ := s.LookupChunk(r.ID); !inHost {
			t.Fatalf("pinned chunk %s dropped from host RAM", r.ID)
		}
	}
	s.CommitCheckpoint(context.Background(), "b")
	mustSelfCheck(t, s)
}

func TestAbortCheckpointRestoresState(t *testing.T) {
	s := testStore(t)
	refs := refsFor("m", 2, 100)
	checkpoint(s, "a", refs)
	s.PlanCheckpoint("b", refs)
	s.AbortCheckpoint("b")
	mustSelfCheck(t, s)
	if _, ok := s.Resident("b"); ok {
		t.Fatal("aborted checkpoint left a manifest")
	}
}

func TestTrimCacheEvictsLRUUnreferenced(t *testing.T) {
	s := testStore(t, WithHostCap(250))
	// Two images, then both released: 200 bytes cached, under the cap.
	checkpoint(s, "a", refsFor("ma", 1, 100))
	checkpoint(s, "b", refsFor("mb", 1, 100))
	s.Release("a")
	s.Release("b")
	// A third, live image pushes physical host bytes to 300 > 250: the
	// LRU cached chunk (a's) must go; the live image must not.
	checkpoint(s, "c", refsFor("mc", 1, 100))
	mustSelfCheck(t, s)

	if inHost, _ := s.LookupChunk(ChunkKey("ma", "w", "0")); inHost {
		t.Fatal("oldest unreferenced chunk survived the trim")
	}
	if inHost, _ := s.LookupChunk(ChunkKey("mb", "w", "0")); !inHost {
		t.Fatal("newer cached chunk evicted out of LRU order")
	}
	if inHost, _ := s.LookupChunk(ChunkKey("mc", "w", "0")); !inHost {
		t.Fatal("live image chunk evicted")
	}
	if st := s.Stats(); st.HostBytes != 200 {
		t.Fatalf("host bytes = %d, want 200", st.HostBytes)
	}
}

// peerStub is a canned remote inventory.
type peerStub struct {
	id     string
	inHost map[ChunkID]bool
	onDisk map[ChunkID]bool
}

func (p *peerStub) PeerID() string { return p.id }
func (p *peerStub) LookupChunk(id ChunkID) (bool, bool) {
	return p.inHost[id], p.onDisk[id]
}

func TestRestorePlanRanksPeerRAMOverLocalDisk(t *testing.T) {
	s := testStore(t)
	refs := refsFor("m", 2, 1<<30)
	checkpoint(s, "a", refs)
	if _, _, err := s.Demote(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	// A peer holds chunk 0 in host RAM; on the H100 testbed the fabric
	// read from peer RAM beats the local NVMe read.
	peer := &peerStub{id: "n2", inHost: map[ChunkID]bool{refs[0].ID: true}}
	s.SetPeers([]Peer{peer})

	sess, err := s.OpenRestore(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.FetchRange(0, 2<<30); err != nil {
		t.Fatal(err)
	}
	sess.Close(nil)
	if got := sess.bySource[SrcPeerRAM]; got != 1<<30 {
		t.Fatalf("peer RAM served %d bytes, want chunk 0 (%d)", got, 1<<30)
	}
	if got := sess.bySource[SrcLocalDisk]; got != 1<<30 {
		t.Fatalf("local disk served %d bytes, want chunk 1 (%d)", got, 1<<30)
	}
	mustSelfCheck(t, s)
}

func TestFetchFaultFallsBackToNextSource(t *testing.T) {
	s := testStore(t)
	refs := refsFor("m", 1, 1<<20)
	checkpoint(s, "a", refs)
	if _, _, err := s.Demote(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	peer := &peerStub{id: "n2", inHost: map[ChunkID]bool{refs[0].ID: true}}
	s.SetPeers([]Peer{peer})
	// Exhaust the peer-RAM source's entire retry budget: the fetch must
	// fall back to local disk instead of failing the restore.
	s.SetChaos(chaos.FailNext(chaos.SiteCkptFetch, fetchRetries))

	sess, err := s.OpenRestore(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.FetchRange(0, 1<<20); err != nil {
		t.Fatal(err)
	}
	sess.Close(nil)
	if sess.bySource[SrcLocalDisk] != 1<<20 {
		t.Fatalf("bySource = %v, want local_disk fallback", sess.bySource)
	}
	mustSelfCheck(t, s)
}

func TestFetchFailsWhenEverySourceFaults(t *testing.T) {
	s := testStore(t)
	refs := refsFor("m", 1, 1<<20)
	checkpoint(s, "a", refs)
	if _, _, err := s.Demote(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	s.SetChaos(chaos.FailNext(chaos.SiteCkptFetch, fetchRetries))

	sess, err := s.OpenRestore(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	err = sess.FetchRange(0, 1<<20)
	if !errors.Is(err, ErrNoSource) {
		t.Fatalf("err = %v, want ErrNoSource", err)
	}
	sess.Close(err)
	mustSelfCheck(t, s)
}

func TestOpenRestoreUnknownManifest(t *testing.T) {
	s := testStore(t)
	if _, err := s.OpenRestore(context.Background(), "ghost"); !errors.Is(err, ErrUnknownManifest) {
		t.Fatalf("err = %v, want ErrUnknownManifest", err)
	}
}

func TestPromoteFromPeerWhenLocalDiskMissing(t *testing.T) {
	// A manifest whose chunks exist only on a peer (e.g. advertised via
	// the cluster registry) can still be promoted: every byte comes over
	// the fabric.
	s := testStore(t)
	refs := refsFor("m", 2, 1<<20)
	checkpoint(s, "a", refs)
	if _, _, err := s.Demote(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	// Another image pushed a's exclusive chunks out... simulate the
	// peer-only case by a second store demote + trim being the only copy
	// holder: here we just verify peer fetch is used when it is cheapest.
	peer := &peerStub{id: "n2", inHost: map[ChunkID]bool{refs[0].ID: true, refs[1].ID: true}}
	s.SetPeers([]Peer{peer})
	moved, dedup, err := s.Promote(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2<<20 || dedup != 0 {
		t.Fatalf("promote moved=%d dedup=%d", moved, dedup)
	}
	if v := s.reg.Counter("ckpt_fetch_bytes_peer_ram").Value(); v != float64(2<<20) {
		t.Fatalf("peer_ram fetch counter = %v, want %v", v, float64(2<<20))
	}
	mustSelfCheck(t, s)
}

func TestReleaseUnknownAndDoubleRelease(t *testing.T) {
	s := testStore(t)
	s.Release("ghost") // no-op
	checkpoint(s, "a", refsFor("m", 1, 10))
	s.Release("a")
	s.Release("a") // second release must not double-decrement
	mustSelfCheck(t, s)
}

func TestMissingHostBytesAndFrac(t *testing.T) {
	s := testStore(t)
	shared := refsFor("m", 1, 100)
	solo := ChunkRef{ID: ChunkKey("a", "d", "0"), Bytes: 300}
	checkpoint(s, "a", append([]ChunkRef{solo}, shared...))
	checkpoint(s, "b", shared)
	if _, _, err := s.Demote(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if got := s.MissingHostBytes("a"); got != 300 {
		t.Fatalf("MissingHostBytes = %d, want 300", got)
	}
	if got := s.HostChunkFrac("a"); got != 0.25 {
		t.Fatalf("HostChunkFrac = %v, want 0.25", got)
	}
	if got := s.HostChunkFrac("ghost"); got != 0 {
		t.Fatalf("unknown frac = %v, want 0", got)
	}
}

func TestRegistryCountersPublished(t *testing.T) {
	reg := metrics.NewRegistry()
	tb, _ := perfmodel.TestbedByName("h100")
	s := New(testClock(t), tb, WithRegistry(reg), WithNodeID("n1"))
	checkpoint(s, "a", refsFor("m", 2, 100))
	checkpoint(s, "b", refsFor("m", 2, 100))
	if got := reg.Counter("ckpt_new_bytes").Value(); got != 200 {
		t.Fatalf("ckpt_new_bytes = %v", got)
	}
	if got := reg.Counter("ckpt_dedup_bytes").Value(); got != 200 {
		t.Fatalf("ckpt_dedup_bytes = %v", got)
	}
	if s.PeerID() != "n1" {
		t.Fatalf("PeerID = %q", s.PeerID())
	}
}

// TestChunkKeyRendering pins ChunkKey's content addresses: FNV-64a over
// the NUL-terminated parts, rendered by String as 16 lowercase hex
// digits. Changing them would orphan every chunk a running store
// caches.
func TestChunkKeyRendering(t *testing.T) {
	for _, c := range []struct {
		parts []string
		want  string
	}{
		{nil, "cbf29ce484222325"},
		{[]string{""}, "af63bd4c8601b7df"},
		{[]string{"model", "w", "0"}, "c62da9abdb5b0879"},
	} {
		if got := ChunkKey(c.parts...).String(); got != c.want {
			t.Errorf("ChunkKey(%q) = %s, want %s", c.parts, got, c.want)
		}
	}
	if got := ChunkID(0xf).String(); got != "000000000000000f" {
		t.Errorf("ChunkID(0xf) = %s, want zero-padded 000000000000000f", got)
	}
	if n := testing.AllocsPerRun(100, func() { ChunkKey("model", "d", "12", "1073741824", "3") }); n > 0 {
		t.Errorf("ChunkKey allocates %v times, want 0", n)
	}
}

// TestKeyHashMatchesChunkKey: hashing parts incrementally, integers
// from their decimal digits, gives ChunkKey's IDs bit for bit, without
// allocating.
func TestKeyHashMatchesChunkKey(t *testing.T) {
	for _, n := range []int64{0, 7, -3, 12, 1 << 30, math.MaxInt64, math.MinInt64} {
		want := ChunkKey("model", "d", strconv.FormatInt(n, 10), "1073741824")
		if got := NewKeyHash().Part("model").Part("d").Int(n).Int(1 << 30).ID(); got != want {
			t.Errorf("n=%d: KeyHash = %s, ChunkKey = %s", n, got, want)
		}
	}
	prefix := NewKeyHash().Part("model").Part("d")
	if n := testing.AllocsPerRun(100, func() { prefix.Int(12).Int(1 << 30).Int(3).ID() }); n > 0 {
		t.Errorf("KeyHash allocates %v times per ID, want 0", n)
	}
}

// TestForgetDropsOnlyUnreferencedChunks checks Forget's guard: chunks
// a live manifest references or an in-flight plan pins survive; an
// unreferenced chunk leaves every tier it was in.
func TestForgetDropsOnlyUnreferencedChunks(t *testing.T) {
	const gib = int64(1) << 30
	s := testStore(t)
	live := refsFor("live", 2, gib)
	dead := refsFor("dead", 2, gib)
	checkpoint(s, "live", live)
	checkpoint(s, "dead", dead)
	if _, _, err := s.Demote(context.Background(), "dead"); err != nil {
		t.Fatal(err)
	}
	s.Release("dead") // on disk only, unreferenced
	pinned := refsFor("pinned", 1, gib)
	checkpoint(s, "pinned", pinned)
	s.Release("pinned")
	s.PlanCheckpoint("again", pinned) // pins the cached chunk
	before := s.Stats()

	var ids []ChunkID
	for _, r := range append(append(live, dead...), pinned...) {
		ids = append(ids, r.ID)
	}
	s.Forget(append(ids, ChunkKey("never", "stored")))
	mustSelfCheck(t, s)
	st := s.Stats()
	if st.Chunks != before.Chunks-2 {
		t.Fatalf("chunks %d → %d, want the 2 dead ones dropped", before.Chunks, st.Chunks)
	}
	if st.DiskBytes != before.DiskBytes-2*gib || st.HostBytes != before.HostBytes {
		t.Fatalf("tiers host %d → %d, disk %d → %d; want only the dead disk bytes gone",
			before.HostBytes, st.HostBytes, before.DiskBytes, st.DiskBytes)
	}
	s.AbortCheckpoint("again")
	s.Forget(ids)
	mustSelfCheck(t, s)
	if got := s.Stats().Chunks; got != 2 {
		t.Fatalf("chunks after unpinning = %d, want only the live manifest's 2", got)
	}
}

// TestChunkRecordRecycling churns dirty generations of two processes
// through a host cap smaller than both images, so Forget (a superseded
// generation) and the cache trim (LRU eviction) both drop chunk
// records onto the free list and commits and fetches take them back.
// After every step the store self-checks, and every free record is
// zeroed and unreachable from the chunk map: a recycled record never
// carries refs, pins or tier flags into its next payload.
func TestChunkRecordRecycling(t *testing.T) {
	const mib = int64(1) << 20
	s := testStore(t, WithHostCap(20*mib), WithRegistry(metrics.NewRegistry()))
	ctx := context.Background()
	seen := make(map[*chunk]bool) // every record the store ever held
	peak := 0                     // most chunks live at once
	check := func(step int, what string) {
		t.Helper()
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("step %d, after %s: %v", step, what, err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		peak = max(peak, len(s.chunks))
		live := make(map[*chunk]bool, len(s.chunks))
		for id, c := range s.chunks {
			if c.id != id {
				t.Fatalf("step %d, after %s: chunk %s holds the record of %s", step, what, id, c.id)
			}
			live[c] = true
			seen[c] = true
		}
		for _, c := range s.free {
			if *c != (chunk{}) {
				t.Fatalf("step %d, after %s: free record carries %+v", step, what, *c)
			}
			if live[c] {
				t.Fatalf("step %d, after %s: free record %p is still in the chunk map", step, what, c)
			}
		}
	}
	dyn := make(map[string][]ChunkID)
	forgot := 0
	for step := 0; step < 120; step++ {
		key := [...]string{"a", "b"}[step%2]
		gen := strconv.Itoa(step/2 + 1)
		refs := refsFor(key, 4, mib) // weights: the same every generation
		var ids []ChunkID
		for i := 0; i < 8; i++ {
			id := ChunkKey(key, "d", strconv.Itoa(i), gen)
			refs = append(refs, ChunkRef{ID: id, Bytes: mib})
			ids = append(ids, id)
		}
		// The driver's order: forget the superseded generation at plan time.
		free := len(s.free)
		s.Forget(dyn[key])
		if len(s.free) > free {
			forgot++
		}
		dyn[key] = ids
		check(step, "forget")
		checkpoint(s, key, refs)
		check(step, "commit")
		if step%5 == 0 {
			if _, _, err := s.Demote(ctx, key); err != nil {
				t.Fatal(err)
			}
			check(step, "demote")
		}
		sess, err := s.OpenRestore(ctx, key)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ferr := sess.FetchRange(0, 12*mib)
		sess.Close(ferr)
		if ferr != nil {
			t.Fatalf("step %d: %v", step, ferr)
		}
		check(step, "restore")
		s.Release(key)
		check(step, "release")
	}
	if forgot == 0 {
		t.Fatal("Forget never dropped a record")
	}
	if got := s.reg.Counter("ckpt_cache_evicted_bytes").Value(); got == 0 {
		t.Fatal("the cache trim never ran")
	}
	t.Logf("%d chunk records, at most %d chunks live at once", len(seen), peak)
	if len(seen) > 2*peak {
		t.Fatalf("the store made %d chunk records for at most %d live at once: records are not recycled", len(seen), peak)
	}
}

// walkTotals sums what Stats keeps as running totals the long way: each
// live manifest's chunk bytes, and each chunk with a reference once.
func walkTotals(s *Store) (logical, unique int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.manifests {
		for _, r := range m.chunks {
			logical += r.Bytes
		}
	}
	for _, c := range s.chunks {
		if c.refs > 0 {
			unique += c.bytes
		}
	}
	return logical, unique
}

// TestStatsTotalsMatchWalk checks Stats' running logical and unique
// byte totals against a full walk after every kind of operation:
// commits that share, repeat and replace chunks, an abort, a demotion
// and promotion, a restore, releases (one of them repeated), Forget and
// a cache trim.
func TestStatsTotalsMatchWalk(t *testing.T) {
	const mib = int64(1) << 20
	s := testStore(t, WithHostCap(8*mib))
	check := func(op string) {
		t.Helper()
		mustSelfCheck(t, s)
		logical, unique := walkTotals(s)
		if st := s.Stats(); st.LogicalBytes != logical || st.UniqueBytes != unique {
			t.Fatalf("after %s: Stats logical=%d unique=%d, walk logical=%d unique=%d",
				op, st.LogicalBytes, st.UniqueBytes, logical, unique)
		}
	}
	a := refsFor("a", 3, mib)
	checkpoint(s, "a", a)
	check("commit a")
	checkpoint(s, "b", append(refsFor("a", 2, mib), refsFor("b", 2, mib)...))
	check("commit b sharing two of a's chunks")
	checkpoint(s, "twice", []ChunkRef{a[2], a[2]})
	check("commit a manifest listing one chunk twice")
	checkpoint(s, "a", a[:2])
	check("re-checkpoint a without its third chunk")
	s.PlanCheckpoint("c", refsFor("c", 2, mib))
	check("plan c")
	s.AbortCheckpoint("c")
	check("abort c")
	if _, _, err := s.Demote(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	check("demote b")
	if _, _, err := s.Promote(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	check("promote b")
	sess, err := s.OpenRestore(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	err = sess.FetchRange(0, 2*mib)
	sess.Close(err)
	if err != nil {
		t.Fatal(err)
	}
	check("restore a")
	s.Release("a")
	check("release a")
	s.Release("a")
	check("release a again")
	s.Release("twice")
	check("release twice")
	var ids []ChunkID
	for _, r := range a {
		ids = append(ids, r.ID)
	}
	s.Forget(ids)
	check("forget a's chunks")
	checkpoint(s, "big", refsFor("big", 8, mib))
	check("commit past the host cap")
	s.Release("b")
	s.Release("big")
	check("release everything")
	if st := s.Stats(); st.LogicalBytes != 0 || st.UniqueBytes != 0 {
		t.Fatalf("empty store reports logical=%d unique=%d", st.LogicalBytes, st.UniqueBytes)
	}
}
