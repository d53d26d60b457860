package core

import (
	"context"
	"fmt"
	"testing"

	"swapservellm/internal/gpu"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
)

func BenchmarkReserveRelease(b *testing.B) {
	clock := simclock.NewVirtual(testEpoch)
	topo := gpu.NewTopology(perfmodel.GPUH100, 1, 80*gib)
	tm := NewTaskManager(clock, topo)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := tm.Reserve(ctx, []int{0}, gib, "bench")
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

func BenchmarkReserveMultiGPU(b *testing.B) {
	clock := simclock.NewVirtual(testEpoch)
	topo := gpu.NewTopology(perfmodel.GPUH100, 8, 80*gib)
	tm := NewTaskManager(clock, topo)
	ctx := context.Background()
	gpus := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < b.N; i++ {
		res, err := tm.Reserve(ctx, gpus, gib, "bench")
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

func BenchmarkPolicySelect(b *testing.B) {
	cands := make([]Candidate, 32)
	for i := range cands {
		cands[i] = Candidate{
			Name:              fmt.Sprintf("m%d", i),
			QueueLen:          i % 5,
			LastAccessedNanos: int64(i * 1000),
			FreeableBytes:     int64(i) * gib,
		}
	}
	for _, policy := range []PreemptionPolicy{DemandAwarePolicy{}, LRUPolicy{}, LargestFirstPolicy{}} {
		b.Run(policy.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				policy.Select(cands)
			}
		})
	}
}

func BenchmarkBackendTouch(b *testing.B) {
	bk := &Backend{}
	now := testEpoch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(1)
		bk.touch(now)
	}
}
