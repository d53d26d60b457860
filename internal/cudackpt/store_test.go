package cudackpt

import (
	"context"
	"testing"

	"swapservellm/internal/ckptstore"
	"swapservellm/internal/gpu"
	"swapservellm/internal/metrics"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

// newStoreDriver builds a driver with the content-addressed
// checkpoint store attached, on newVirtualDriver's Virtual clock.
func newStoreDriver(t testing.TB, hostCap int64) (*Driver, *ckptstore.Store, *gpu.Device, *metrics.Registry, *simclock.Virtual) {
	t.Helper()
	d, dev, clock := newVirtualDriver(t, hostCap)
	reg := metrics.NewRegistry()
	st := ckptstore.New(clock, perfmodel.H100(), ckptstore.WithRegistry(reg))
	d.AttachStore(st)
	return d, st, dev, reg, clock
}

// TestSpillKeepsSharedChunksResident is the regression test for the
// chunk-aware spill LRU: when the spiller demotes a victim whose weight
// chunks are deduplicated with a still-RAM-resident replica, those
// shared chunks must keep their host copies — only the victim's
// exclusive bytes go to disk, and the victim's later restore pays the
// disk read for the exclusive bytes alone.
func TestSpillKeepsSharedChunksResident(t *testing.T) {
	const weight = 28 * gib
	d, st, dev, reg, _ := newStoreDriver(t, 70*gib)

	// Two replicas of one model (shared 28 GiB weight region + 2 GiB of
	// pristine dynamic state — all content-shared), plus an unrelated
	// model that will trigger the spill.
	dev.Alloc("a", 30*gib)
	dev.Alloc("b", 30*gib)
	dev.Alloc("c", 20*gib)
	for _, pid := range []string{"a", "b"} {
		if err := d.Register(pid, dev, perfmodel.EngineVLLM, weight); err != nil {
			t.Fatal(err)
		}
		if err := d.SetContentKey(pid, "modelA"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Register("c", dev, perfmodel.EngineVLLM, 18*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.SetContentKey("c", "modelC"); err != nil {
		t.Fatal(err)
	}

	if _, err := d.Suspend(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Suspend(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	// b's image deduplicated fully against a's.
	if got := reg.Counter("ckpt_dedup_bytes").Value(); got != float64(30*gib) {
		t.Fatalf("replica dedup bytes = %v, want %v", got, float64(30*gib))
	}

	// c's 20 GiB checkpoint exceeds the 70 GiB logical cap (30+30+20):
	// the spiller demotes the LRU image (a). The chunk-aware demotion
	// must keep the 30 GiB shared with RAM-resident b in host RAM and
	// write nothing to disk — a has no exclusive bytes at all.
	if _, err := d.Suspend(context.Background(), "c"); err != nil {
		t.Fatal(err)
	}
	if loc, _ := d.ImageLocation("a"); loc != LocDisk {
		t.Fatalf("a location = %v, want disk (logical ledger)", loc)
	}
	if got := st.MissingHostBytes("a"); got != 0 {
		t.Fatalf("a is missing %d host bytes after spill; shared chunks were evicted", got)
	}
	if got := reg.Counter("ckpt_demote_bytes").Value(); got != 0 {
		t.Fatalf("spill wrote %v bytes to disk for fully shared image", got)
	}

	// a's restore must fetch every byte from host RAM — no disk reads —
	// even though the logical ledger says the image lives on disk.
	if err := d.Resume(context.Background(), "a", nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ckpt_fetch_bytes_local_disk").Value(); got != 0 {
		t.Fatalf("restore of spilled-but-shared image read %v bytes from disk", got)
	}
	if got := reg.Counter("ckpt_fetch_bytes_host_ram").Value(); got != float64(30*gib) {
		t.Fatalf("host RAM served %v bytes, want the whole image", got)
	}
	if err := st.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillWritesOnlyExclusiveBytes checks the complementary half: a
// victim with exclusive (dirty) chunks pays the disk write for those
// bytes only, and its restore reads back exactly them.
func TestSpillWritesOnlyExclusiveBytes(t *testing.T) {
	const weight = 28 * gib
	d, st, dev, reg, _ := newStoreDriver(t, 70*gib)
	dev.Alloc("a", 30*gib)
	dev.Alloc("b", 30*gib)
	dev.Alloc("c", 20*gib)
	for _, pid := range []string{"a", "b"} {
		d.Register(pid, dev, perfmodel.EngineVLLM, weight)
		d.SetContentKey(pid, "modelA")
	}
	d.Register("c", dev, perfmodel.EngineVLLM, 18*gib)
	d.SetContentKey("c", "modelC")

	// a has served traffic: its 2 GiB dynamic region is dirty and
	// cannot dedup against b's pristine copy.
	d.MarkDirty("a")
	if _, err := d.Suspend(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Suspend(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Suspend(context.Background(), "c"); err != nil {
		t.Fatal(err)
	}
	if loc, _ := d.ImageLocation("a"); loc != LocDisk {
		t.Fatalf("a location = %v, want disk", loc)
	}
	// Only the 2 GiB dirty region was a's alone.
	if got := reg.Counter("ckpt_demote_bytes").Value(); got != float64(2*gib) {
		t.Fatalf("demote wrote %v, want %v (exclusive bytes only)", got, float64(2*gib))
	}
	if got := st.MissingHostBytes("a"); got != 2*gib {
		t.Fatalf("a missing %d host bytes, want %d", got, 2*gib)
	}

	if err := d.Resume(context.Background(), "a", nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ckpt_fetch_bytes_local_disk").Value(); got != float64(2*gib) {
		t.Fatalf("restore read %v from disk, want %v", got, float64(2*gib))
	}
	if err := st.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaRecheckpointSkipsCleanChunks pins the delta-checkpoint fast
// path end to end at the driver level: re-checkpointing an idle model
// whose chunks are still cached is dramatically faster than the first
// checkpoint, and a dirtied model re-pays only its dynamic region.
func TestDeltaRecheckpointSkipsCleanChunks(t *testing.T) {
	d, st, dev, reg, clock := newStoreDriver(t, 0)
	dev.Alloc("a", 30*gib)
	if err := d.Register("a", dev, perfmodel.EngineVLLM, 28*gib); err != nil {
		t.Fatal(err)
	}
	d.SetContentKey("a", "modelA")

	t0 := clock.Now()
	if _, err := d.Suspend(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	full := clock.Since(t0)
	if err := d.Resume(context.Background(), "a", nil); err != nil {
		t.Fatal(err)
	}

	// Idle re-checkpoint: nothing changed, every chunk still cached.
	t1 := clock.Now()
	if _, err := d.Suspend(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	delta := clock.Since(t1)
	if delta*2 >= full {
		t.Fatalf("idle re-checkpoint %v not ≥2× faster than full %v", delta, full)
	}
	if got := reg.Counter("ckpt_new_bytes").Value(); got != float64(30*gib) {
		t.Fatalf("re-checkpoint stored new bytes: total %v, want %v", got, float64(30*gib))
	}
	if err := d.Resume(context.Background(), "a", nil); err != nil {
		t.Fatal(err)
	}

	// Dirty re-checkpoint: the 2 GiB dynamic region re-keys and must be
	// transferred; the 28 GiB weight region stays clean.
	d.MarkDirty("a")
	if _, err := d.Suspend(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ckpt_new_bytes").Value(); got != float64(32*gib) {
		t.Fatalf("dirty re-checkpoint new bytes total %v, want %v", got, float64(32*gib))
	}
	if err := st.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyCyclesDoNotGrowStore is the regression test for dead dynamic
// chunks: every dirty swap cycle re-keys the process's dynamic region,
// and the superseded generation's chunks can never match again. On an
// uncapped store (where cache trimming never runs) they must still be
// dropped, so the chunk count and host footprint stay flat after the
// first cycle.
func TestDirtyCyclesDoNotGrowStore(t *testing.T) {
	d, st, dev, _, _ := newStoreDriver(t, 0)
	if err := dev.Alloc("a", 12*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("a", dev, perfmodel.EngineVLLM, 8*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.SetContentKey("a", "modelA"); err != nil {
		t.Fatal(err)
	}
	var first ckptstore.Stats
	for cycle := 0; cycle < 50; cycle++ {
		d.MarkDirty("a")
		if _, err := d.Suspend(context.Background(), "a"); err != nil {
			t.Fatal(err)
		}
		if err := d.Resume(context.Background(), "a", nil); err != nil {
			t.Fatal(err)
		}
		if err := st.SelfCheck(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		got := st.Stats()
		if cycle == 0 {
			first = got
			continue
		}
		if got.Chunks != first.Chunks || got.HostBytes != first.HostBytes {
			t.Fatalf("cycle %d: %d chunks / %d host bytes, want %d / %d as after the first cycle",
				cycle, got.Chunks, got.HostBytes, first.Chunks, first.HostBytes)
		}
	}
	// The flat footprint is the weight region plus one generation of
	// dynamic chunks.
	if first.HostBytes != 12*gib {
		t.Fatalf("host bytes = %d, want %d", first.HostBytes, 12*gib)
	}
}

// cycleDriver registers one 72 GiB vLLM process with 16 GiB of weights
// on a store-backed driver, the shape of a swap-rotation backend: a
// dirty checkpoint re-keys its 56 dynamic chunks.
func cycleDriver(t testing.TB) (*Driver, *ckptstore.Store) {
	d, st, dev, _, _ := newStoreDriver(t, 0)
	if err := dev.Alloc("a", 72*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("a", dev, perfmodel.EngineVLLM, 16*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.SetContentKey("a", "modelA"); err != nil {
		t.Fatal(err)
	}
	return d, st
}

// checkpointCycle is one steady-state swap of the process: it served
// traffic, is checkpointed out, then restored in.
func checkpointCycle(t testing.TB, d *Driver) {
	ctx := context.Background()
	d.MarkDirty("a")
	if err := d.Lock(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(ctx, "a", nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Unlock(ctx, "a"); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCycleAllocs pins what one steady-state checkpoint cycle
// allocates, driver and store together. Before chunk IDs were 64-bit
// values and chunk records were recycled, the same cycle measured 173
// allocations: one ID string per chunk and one record per dirty chunk.
// It measured 19 until the driver kept its per-transfer scratch and
// PCIe links on the process, and integer span attributes stopped
// formatting for untraced spans; it is 6 now.
func TestCheckpointCycleAllocs(t *testing.T) {
	d, st := cycleDriver(t)
	checkpointCycle(t, d)
	got := testing.AllocsPerRun(50, func() { checkpointCycle(t, d) })
	t.Logf("checkpoint cycle: %v allocations", got)
	if got > 12 {
		t.Errorf("checkpoint cycle allocates %v times, budget 12", got)
	}
	if err := st.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCheckpointCycle is one steady-state checkpoint cycle on a
// store-backed driver.
func BenchmarkCheckpointCycle(b *testing.B) {
	d, _ := cycleDriver(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpointCycle(b, d)
	}
}
