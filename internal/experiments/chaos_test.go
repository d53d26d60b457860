package experiments

import (
	"flag"
	"testing"
)

var (
	chaosSeed = flag.Int64("chaos.seed", 0,
		"replay a single chaos soak seed instead of sweeping")
	chaosSeeds = flag.Int("chaos.seeds", 50,
		"number of consecutive seeds in the chaos soak sweep")
)

// TestChaosSoak is the property-style randomized soak: the node fault
// schedule replayed over a sweep of seeds (default 50, -chaos.seeds to
// change), asserting zero invariant violations on every one. Failing
// seeds are printed for deterministic replay via -chaos.seed=<n>.
func TestChaosSoak(t *testing.T) {
	if *chaosSeed != 0 {
		row, err := ChaosSoak(*chaosSeed)
		if err != nil {
			t.Fatalf("seed %d: %v", *chaosSeed, err)
		}
		t.Logf("replay seed %d: %+v", *chaosSeed, row)
		if row.Violations != 0 {
			t.Fatalf("seed %d: %d invariant violations:\n%s",
				*chaosSeed, row.Violations, row.ViolationText)
		}
		return
	}

	var failing []int64
	var faults, failed, recovered int
	for seed := int64(1); seed <= int64(*chaosSeeds); seed++ {
		row, err := ChaosSoak(seed)
		if err != nil {
			t.Fatalf("seed %d: trial error: %v", seed, err)
		}
		faults += row.FaultsInjected
		failed += row.Failed
		recovered += row.Recovered
		if row.Violations != 0 {
			failing = append(failing, seed)
			t.Errorf("seed %d: %d invariant violations:\n%s",
				seed, row.Violations, row.ViolationText)
		}
	}
	t.Logf("%d seeds: %d faults injected, %d requests failed, %d recovered",
		*chaosSeeds, faults, failed, recovered)
	if len(failing) > 0 {
		t.Fatalf("failing seeds %v — replay each with -chaos.seed=<n>", failing)
	}
	if faults == 0 {
		t.Fatal("soak injected no faults: the schedule is not reaching the sites")
	}
}

// TestChaosClusterSoak sweeps the cluster schedule (heartbeat loss,
// proxy failures, SSE cuts) over a smaller seed range: streams must
// resume exactly across failovers and the node state machine must take
// only legal edges.
func TestChaosClusterSoak(t *testing.T) {
	if *chaosSeed != 0 {
		row, err := ChaosClusterSoak(*chaosSeed)
		if err != nil {
			t.Fatalf("seed %d: %v", *chaosSeed, err)
		}
		t.Logf("replay seed %d: %+v", *chaosSeed, row)
		if row.Violations != 0 {
			t.Fatalf("seed %d: %d invariant violations:\n%s",
				*chaosSeed, row.Violations, row.ViolationText)
		}
		return
	}

	seeds := *chaosSeeds
	if seeds > 10 {
		seeds = 10
	}
	var failing []int64
	var faults int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		row, err := ChaosClusterSoak(seed)
		if err != nil {
			t.Fatalf("seed %d: trial error: %v", seed, err)
		}
		faults += row.FaultsInjected
		if row.Violations != 0 {
			failing = append(failing, seed)
			t.Errorf("seed %d: %d invariant violations:\n%s",
				seed, row.Violations, row.ViolationText)
		}
	}
	if len(failing) > 0 {
		t.Fatalf("failing seeds %v — replay each with -chaos.seed=<n>", failing)
	}
	if faults == 0 {
		t.Fatal("cluster soak injected no faults")
	}
}

// TestChaosSchedSoak sweeps the scheduling-subsystem schedule (forced
// admission mispredictions, suppressed pre-warms, inverted eviction
// verdicts): every shed must stay well-formed (Retry-After present,
// counters matching client-observed 429s) and the node invariants must
// hold at quiescence. Mispredictions may cost latency, never
// correctness.
func TestChaosSchedSoak(t *testing.T) {
	if *chaosSeed != 0 {
		row, err := ChaosSchedSoak(*chaosSeed)
		if err != nil {
			t.Fatalf("seed %d: %v", *chaosSeed, err)
		}
		t.Logf("replay seed %d: %+v", *chaosSeed, row)
		if row.Violations != 0 {
			t.Fatalf("seed %d: %d invariant violations:\n%s",
				*chaosSeed, row.Violations, row.ViolationText)
		}
		return
	}

	seeds := *chaosSeeds
	if seeds > 10 {
		seeds = 10
	}
	var failing []int64
	var faults int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		row, err := ChaosSchedSoak(seed)
		if err != nil {
			t.Fatalf("seed %d: trial error: %v", seed, err)
		}
		faults += row.FaultsInjected
		if row.Violations != 0 {
			failing = append(failing, seed)
			t.Errorf("seed %d: %d invariant violations:\n%s",
				seed, row.Violations, row.ViolationText)
		}
	}
	if len(failing) > 0 {
		t.Fatalf("failing seeds %v — replay each with -chaos.seed=<n>", failing)
	}
	if faults == 0 {
		t.Fatal("sched soak injected no faults")
	}
}

// TestChaosSoakDeterministic: the same seed must produce the same fault
// schedule and the same workload outcome — the property that makes
// failing seeds replayable. (Latency fields carry real-clock jitter and
// are excluded.)
func TestChaosSoakDeterministic(t *testing.T) {
	a, err := ChaosSoak(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosSoak(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultsInjected != b.FaultsInjected || a.Failed != b.Failed ||
		a.Recovered != b.Recovered || a.Unrecovered != b.Unrecovered ||
		a.Violations != b.Violations {
		t.Fatalf("same seed diverged:\n run1 %+v\n run2 %+v", a, b)
	}
	if a.FaultsInjected == 0 {
		t.Fatal("seed 7 injected no faults")
	}
}
