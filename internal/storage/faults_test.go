package storage

import (
	"errors"
	"testing"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/perfmodel"
)

func TestTornWriteRecovery(t *testing.T) {
	s, _ := newStore(t)
	s.SetChaos(chaos.FailNext(chaos.SiteStorageWrite, 1))

	err := s.Put("llama.gguf", 16*gib, perfmodel.TierDisk)
	if !errors.Is(err, ErrTorn) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Put = %v, want torn+injected", err)
	}
	// The torn partial occupies the name but cannot be read or promoted.
	b, serr := s.Stat("llama.gguf")
	if serr != nil || !b.Torn {
		t.Fatalf("Stat = %+v, %v", b, serr)
	}
	if _, rerr := s.Read("llama.gguf"); !errors.Is(rerr, ErrTorn) {
		t.Fatalf("Read torn = %v", rerr)
	}
	if perr := s.Promote("llama.gguf", perfmodel.TierTmpfs); !errors.Is(perr, ErrTorn) {
		t.Fatalf("Promote torn = %v", perr)
	}
	// A retried Put replaces the partial and heals the blob.
	if err := s.Put("llama.gguf", 16*gib, perfmodel.TierDisk); err != nil {
		t.Fatalf("retried Put: %v", err)
	}
	if _, err := s.Read("llama.gguf"); err != nil {
		t.Fatalf("Read after heal: %v", err)
	}
	// The healed blob is whole again: a further Put is a duplicate.
	if err := s.Put("llama.gguf", 16*gib, perfmodel.TierDisk); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Put after heal = %v", err)
	}
}

func TestReadFaultAndDelay(t *testing.T) {
	s, clock := newStore(t)
	if err := s.Put("m.gguf", 8*gib, perfmodel.TierDisk); err != nil {
		t.Fatal(err)
	}
	s.SetChaos(chaos.FailNext(chaos.SiteStorageRead, 1))
	if _, err := s.Read("m.gguf"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Read = %v, want injected", err)
	}
	t0 := clock.Now()
	if _, err := s.Read("m.gguf"); err != nil {
		t.Fatalf("Read after fault cleared: %v", err)
	}
	base := clock.Since(t0)

	const extra = time.Minute
	s.SetChaos(chaos.NewInjector(chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Site: chaos.SiteStorageRead, Delay: extra},
	}}))
	t1 := clock.Now()
	if _, err := s.Read("m.gguf"); err != nil {
		t.Fatal(err)
	}
	if slow := clock.Since(t1); slow < base+extra-time.Second {
		t.Fatalf("degraded read %v not slower than %v by ~%v", slow, base, extra)
	}
}
