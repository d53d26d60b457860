package main

import (
	"context"
	"runtime/metrics"
	"syscall"
	"time"

	"swapservellm/internal/obs"
)

// rtSample is a point reading of the process's own costs.
type rtSample struct {
	cpu     time.Duration // user+sys, from getrusage
	allocs  uint64        // heap allocations since start
	gcCPU   float64       // runtime estimate of GC CPU seconds
	userCPU float64       // runtime estimate of non-GC Go CPU seconds
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readRuntime() rtSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return rtSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  ss[0].Value.Uint64(),
		gcCPU:   ss[1].Value.Float64(),
		userCPU: ss[2].Value.Float64(),
	}
}

// startHeapSampler samples the live heap every 2 ms until the returned
// stop function is called; stop returns the highest reading.
func startHeapSampler() (stop func() uint64) {
	var peak uint64
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
	}
	read()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		<-exited
		read()
		return peak
	}
}

// counters is a reading of the program's registry counters and node
// reports that the per-layer metrics are built from.
type counters map[string]float64

// clusterCounters are read from the gateway's registry.
var clusterCounters = []string{
	"placement_total", "placement_hits", "cross_node_retries",
	"proxy_cache_hits", "proxy_cache_misses", "sched_prefetch_hits", "sched_prefetch_misses",
}

// nodeCounters are summed over every node's registry.
var nodeCounters = []string{
	"ckpt_dedup_bytes", "ckpt_new_bytes",
	"ckpt_fetch_bytes_host_ram", "ckpt_fetch_bytes_peer_ram",
	"ckpt_fetch_bytes_local_disk", "ckpt_fetch_bytes_peer_disk",
}

func (s *stack) counters() counters {
	_, span := obs.Start(obs.WithTracer(context.Background(), s.c.Tracer()), "bench.registry_read")
	defer span.End()
	c := counters{}
	reg := s.c.Registry()
	for _, n := range clusterCounters {
		c[n] = reg.Counter(n).Value()
	}
	for _, cl := range s.cfg.Scheduling.Classes {
		c["sched_shed"] += reg.Counter("sched_shed_" + cl.Name).Value()
	}
	for _, node := range s.c.Nodes() {
		nreg := node.Server().Registry()
		for _, n := range nodeCounters {
			c[n] += nreg.Counter(n).Value()
		}
		c["swap_ins"] += float64(node.Report().SwapIns)
	}
	return c
}

func (c counters) minus(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
