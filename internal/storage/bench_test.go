package storage

import (
	"fmt"
	"testing"
	"time"

	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

func benchStore(b *testing.B) *ModelStore {
	b.Helper()
	clock := simclock.NewVirtual(time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC))
	return NewModelStore(clock, perfmodel.H100())
}

func BenchmarkStatLookup(b *testing.B) {
	s := benchStore(b)
	for i := 0; i < 64; i++ {
		s.Put(fmt.Sprintf("m%d.gguf", i), gib, perfmodel.TierDisk)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Stat("m32.gguf")
	}
}

func BenchmarkTierUsage(b *testing.B) {
	s := benchStore(b)
	for i := 0; i < 64; i++ {
		tier := perfmodel.TierDisk
		if i%2 == 0 {
			tier = perfmodel.TierTmpfs
		}
		s.Put(fmt.Sprintf("m%d.gguf", i), gib, tier)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TierUsage()
	}
}
