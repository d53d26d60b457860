package storage

import (
	"errors"
	"testing"
	"time"

	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

const gib = int64(1) << 30

func newStore(t *testing.T) (*ModelStore, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual(time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC))
	gate := clock.Gate()
	gate.Enter()
	t.Cleanup(gate.Exit)
	return NewModelStore(clock, perfmodel.A100()), clock
}

func TestPutStatDelete(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Put("llama.gguf", 16*gib, perfmodel.TierDisk); err != nil {
		t.Fatal(err)
	}
	b, err := s.Stat("llama.gguf")
	if err != nil || b.Bytes != 16*gib || b.Tier != perfmodel.TierDisk {
		t.Fatalf("Stat = %+v, %v", b, err)
	}
	if err := s.Delete("llama.gguf"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("llama.gguf"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat after delete: %v", err)
	}
	if err := s.Delete("llama.gguf"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Put("zero", 0, perfmodel.TierDisk); err == nil {
		t.Error("zero-size put accepted")
	}
	if err := s.Put("bad-tier", gib, perfmodel.StorageTier("tape")); err == nil {
		t.Error("unknown tier accepted")
	}
	s.Put("dup", gib, perfmodel.TierDisk)
	if err := s.Put("dup", gib, perfmodel.TierDisk); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate put: %v", err)
	}
}

func TestReadTakesTierTime(t *testing.T) {
	s, clock := newStore(t)
	s.Put("disk.gguf", 8*gib, perfmodel.TierDisk)
	s.Put("mem.gguf", 8*gib, perfmodel.TierTmpfs)

	t0 := clock.Now()
	if _, err := s.Read("disk.gguf"); err != nil {
		t.Fatal(err)
	}
	diskDur := clock.Since(t0)

	t1 := clock.Now()
	if _, err := s.Read("mem.gguf"); err != nil {
		t.Fatal(err)
	}
	memDur := clock.Since(t1)

	if memDur >= diskDur {
		t.Fatalf("tmpfs read %v not faster than disk %v", memDur, diskDur)
	}
	// The A100 disk curve puts an 8 GiB read in the tens of seconds.
	if diskDur < 5*time.Second {
		t.Fatalf("disk read of 8 GiB took only %v simulated", diskDur)
	}
}

func TestReadUnknown(t *testing.T) {
	s, _ := newStore(t)
	if _, err := s.Read("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read unknown: %v", err)
	}
}

func TestPromote(t *testing.T) {
	s, clock := newStore(t)
	s.Put("m.gguf", 4*gib, perfmodel.TierDisk)
	t0 := clock.Now()
	if err := s.Promote("m.gguf", perfmodel.TierTmpfs); err != nil {
		t.Fatal(err)
	}
	if clock.Since(t0) <= 0 {
		t.Fatal("promote should take simulated time")
	}
	b, _ := s.Stat("m.gguf")
	if b.Tier != perfmodel.TierTmpfs {
		t.Fatalf("tier after promote = %s", b.Tier)
	}
	// Promoting to the same tier is a no-op.
	t1 := clock.Now()
	if err := s.Promote("m.gguf", perfmodel.TierTmpfs); err != nil {
		t.Fatal(err)
	}
	if d := clock.Since(t1); d > time.Second {
		t.Fatalf("same-tier promote took %v", d)
	}
	if err := s.Promote("ghost", perfmodel.TierDisk); !errors.Is(err, ErrNotFound) {
		t.Fatalf("promote unknown: %v", err)
	}
}

func TestListSortedAndTierUsage(t *testing.T) {
	s, _ := newStore(t)
	s.Put("b.gguf", 2*gib, perfmodel.TierDisk)
	s.Put("a.gguf", 1*gib, perfmodel.TierTmpfs)
	s.Put("c.gguf", 4*gib, perfmodel.TierDisk)
	list := s.List()
	if len(list) != 3 || list[0].Name != "a.gguf" || list[2].Name != "c.gguf" {
		t.Fatalf("List = %+v", list)
	}
	usage := s.TierUsage()
	if usage[perfmodel.TierDisk] != 6*gib || usage[perfmodel.TierTmpfs] != gib {
		t.Fatalf("TierUsage = %+v", usage)
	}
}
