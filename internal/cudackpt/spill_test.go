package cudackpt

import (
	"context"
	"errors"
	"testing"

	"swapservellm/internal/perfmodel"
)

func TestSpillEvictsLRUImage(t *testing.T) {
	d, dev, _ := newDriver(t, 40*gib)
	// Two processes whose images cannot both fit in 40 GiB of host RAM.
	dev.Alloc("old", 30*gib)
	dev.Alloc("new", 25*gib)
	d.Register("old", dev, perfmodel.EngineOllama, gib)
	d.Register("new", dev, perfmodel.EngineOllama, gib)

	if _, err := d.Suspend(context.Background(), "old"); err != nil {
		t.Fatal(err)
	}
	if loc, _ := d.ImageLocation("old"); loc != LocRAM {
		t.Fatalf("first image location = %v", loc)
	}
	// The second checkpoint must spill the first image to disk.
	if _, err := d.Suspend(context.Background(), "new"); err != nil {
		t.Fatalf("Suspend with spill: %v", err)
	}
	if loc, _ := d.ImageLocation("old"); loc != LocDisk {
		t.Fatalf("LRU image location = %v, want disk", loc)
	}
	if loc, _ := d.ImageLocation("new"); loc != LocRAM {
		t.Fatalf("new image location = %v, want ram", loc)
	}
	if d.HostUsed() != 25*gib || d.DiskUsed() != 30*gib {
		t.Fatalf("tier accounting: host=%d disk=%d", d.HostUsed(), d.DiskUsed())
	}
	if d.SpillCount() != 1 {
		t.Fatalf("spills = %d", d.SpillCount())
	}
}

func TestSpillRestoreFromDiskSlower(t *testing.T) {
	// Virtual time: the two restore durations are exact deadline sums,
	// so host load cannot reorder them.
	d, dev, clock := newDriver(t, 40*gib)
	dev.Alloc("a", 30*gib)
	dev.Alloc("b", 30*gib)
	d.Register("a", dev, perfmodel.EngineOllama, gib)
	d.Register("b", dev, perfmodel.EngineOllama, gib)
	d.Suspend(context.Background(), "a")
	d.Suspend(context.Background(), "b") // spills a to disk

	t0 := clock.Now()
	if err := d.Resume(context.Background(), "a", nil); err != nil {
		t.Fatal(err)
	}
	diskRestore := clock.Since(t0)
	t1 := clock.Now()
	if err := d.Resume(context.Background(), "b", nil); err != nil {
		t.Fatal(err)
	}
	ramRestore := clock.Since(t1)
	if diskRestore <= ramRestore {
		t.Fatalf("disk restore %v not slower than RAM restore %v", diskRestore, ramRestore)
	}
	// Accounting drains both tiers.
	if d.HostUsed() != 0 || d.DiskUsed() != 0 {
		t.Fatalf("residual accounting: host=%d disk=%d", d.HostUsed(), d.DiskUsed())
	}
}

func TestSpillExhausted(t *testing.T) {
	// A single image larger than the cap, with no other image to spill,
	// fails the checkpoint.
	d, dev, _ := newDriver(t, 20*gib)
	dev.Alloc("big", 30*gib)
	d.Register("big", dev, perfmodel.EngineOllama, gib)
	if _, err := d.Suspend(context.Background(), "big"); !errors.Is(err, ErrHostMemory) {
		t.Fatalf("expected ErrHostMemory, got %v", err)
	}
	// The rollback must leave the process running with its memory intact.
	if s, _ := d.State("big"); s != StateRunning {
		t.Fatalf("state after failed suspend = %v", s)
	}
	if dev.OwnerUsage("big") != 30*gib {
		t.Fatal("device allocation lost after failed suspend")
	}
}

func TestSpillLRUOrder(t *testing.T) {
	// Three images; the cap forces exactly the least recently used out.
	d, dev, _ := newDriver(t, 50*gib)
	for _, pid := range []string{"p1", "p2", "p3"} {
		dev.Alloc(pid, 20*gib)
		d.Register(pid, dev, perfmodel.EngineOllama, gib)
	}
	d.Suspend(context.Background(), "p1") // oldest
	d.Suspend(context.Background(), "p2")
	// p3 needs 20 GiB; 40 used of 50 -> spill p1 only.
	if _, err := d.Suspend(context.Background(), "p3"); err != nil {
		t.Fatal(err)
	}
	loc1, _ := d.ImageLocation("p1")
	loc2, _ := d.ImageLocation("p2")
	loc3, _ := d.ImageLocation("p3")
	if loc1 != LocDisk || loc2 != LocRAM || loc3 != LocRAM {
		t.Fatalf("locations: p1=%v p2=%v p3=%v", loc1, loc2, loc3)
	}
}

func TestSpillUnregisterReleasesDisk(t *testing.T) {
	d, dev, _ := newDriver(t, 40*gib)
	dev.Alloc("a", 30*gib)
	dev.Alloc("b", 30*gib)
	d.Register("a", dev, perfmodel.EngineOllama, gib)
	d.Register("b", dev, perfmodel.EngineOllama, gib)
	d.Suspend(context.Background(), "a")
	d.Suspend(context.Background(), "b")
	if err := d.Unregister("a"); err != nil { // disk-resident
		t.Fatal(err)
	}
	if d.DiskUsed() != 0 {
		t.Fatalf("disk bytes leaked: %d", d.DiskUsed())
	}
	if err := d.Unregister("b"); err != nil { // ram-resident
		t.Fatal(err)
	}
	if d.HostUsed() != 0 {
		t.Fatalf("host bytes leaked: %d", d.HostUsed())
	}
}

func TestDemotePromoteRoundTrip(t *testing.T) {
	d, dev, clock := newDriver(t, 60*gib)
	dev.Alloc("a", 20*gib)
	d.Register("a", dev, perfmodel.EngineOllama, gib)
	if _, err := d.Suspend(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}

	t0 := clock.Now()
	if err := d.Demote(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if clock.Since(t0) <= 0 {
		t.Error("demote charged no write time")
	}
	if loc, _ := d.ImageLocation("a"); loc != LocDisk {
		t.Fatalf("location after demote = %v", loc)
	}
	if d.HostUsed() != 0 || d.DiskUsed() != 20*gib {
		t.Fatalf("accounting after demote: host=%d disk=%d", d.HostUsed(), d.DiskUsed())
	}
	// Demoting a disk image is a no-op.
	if err := d.Demote(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}

	if err := d.Promote(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if loc, _ := d.ImageLocation("a"); loc != LocRAM {
		t.Fatalf("location after promote = %v", loc)
	}
	if d.HostUsed() != 20*gib || d.DiskUsed() != 0 {
		t.Fatalf("accounting after promote: host=%d disk=%d", d.HostUsed(), d.DiskUsed())
	}

	// Inventory listing sees the single image.
	snaps := d.Snapshots()
	if len(snaps) != 1 || snaps[0].PID != "a" || snaps[0].Bytes != 20*gib || snaps[0].Loc != LocRAM {
		t.Fatalf("snapshots = %+v", snaps)
	}
}

func TestPromoteRespectsCap(t *testing.T) {
	d, dev, _ := newDriver(t, 40*gib)
	dev.Alloc("a", 30*gib)
	dev.Alloc("b", 30*gib)
	d.Register("a", dev, perfmodel.EngineOllama, gib)
	d.Register("b", dev, perfmodel.EngineOllama, gib)
	d.Suspend(context.Background(), "a")
	d.Suspend(context.Background(), "b") // spills a to disk
	// RAM holds b (30 of 40 GiB); promoting a (30 GiB) cannot fit and must
	// not spill b to make room.
	if err := d.Promote(context.Background(), "a"); !errors.Is(err, ErrHostMemory) {
		t.Fatalf("promote over cap: %v", err)
	}
	if loc, _ := d.ImageLocation("b"); loc != LocRAM {
		t.Fatal("promote displaced another image")
	}
}

func TestDemoteBadState(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	dev.Alloc("run", 5*gib)
	d.Register("run", dev, perfmodel.EngineOllama, gib)
	if err := d.Demote(context.Background(), "run"); !errors.Is(err, ErrBadState) {
		t.Fatalf("demote of running process: %v", err)
	}
	if err := d.Demote(context.Background(), "ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("demote of unknown process: %v", err)
	}
}

func TestImageLocationString(t *testing.T) {
	if LocRAM.String() != "ram" || LocDisk.String() != "disk" {
		t.Fatal("location strings wrong")
	}
}

func TestImageLocationUnknown(t *testing.T) {
	d, _, _ := newDriver(t, 0)
	if _, err := d.ImageLocation("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("unknown pid: %v", err)
	}
}
