package experiments

import (
	"strings"
	"testing"
)

// TestCkptStoreDeterministic runs the ablation twice and requires
// byte-identical artifacts plus the headline properties the issue pins:
// idle delta re-swap-out at least 2× faster than the full one, and the
// peer-RAM restore beating the local-disk restore for every model.
func TestCkptStoreDeterministic(t *testing.T) {
	first, err := AblationCheckpointStore()
	if err != nil {
		t.Fatal(err)
	}
	second, err := AblationCheckpointStore()
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := CkptStoreBenchJSON(first), CkptStoreBenchJSON(second)
	if j1 != j2 {
		t.Fatalf("two runs produced different artifacts:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
	if len(first.Rows) != len(ckptStoreModels) {
		t.Fatalf("got %d rows, want %d", len(first.Rows), len(ckptStoreModels))
	}
	for _, r := range first.Rows {
		if r.SpeedupX < 2 {
			t.Errorf("%s: delta speedup %.2fx < 2x (full %.3fs, delta %.3fs)",
				r.Model, r.SpeedupX, r.FullSec, r.DeltaSec)
		}
		if r.PeerSec >= r.DiskSec {
			t.Errorf("%s: peer-RAM restore %.3fs not faster than local disk %.3fs",
				r.Model, r.PeerSec, r.DiskSec)
		}
		if r.Dedup != 2 {
			t.Errorf("%s: dedup ratio %.3f, want exactly 2 (two identical replicas)", r.Model, r.Dedup)
		}
		if r.DirtySec <= r.DeltaSec || r.DirtySec >= r.FullSec {
			t.Errorf("%s: dirty re-swap %.4fs should sit between delta %.4fs and full %.4fs",
				r.Model, r.DirtySec, r.DeltaSec, r.FullSec)
		}
	}
	for _, must := range []string{
		"\"benchmark\": \"AblationCheckpointStore\"",
		"\"command\": \"go run ./cmd/swapbench -exp ckptstore\"",
		"peer_speedup_x",
	} {
		if !strings.Contains(j1, must) {
			t.Errorf("artifact missing %q", must)
		}
	}
}

// TestChaosCkptStoreSoak runs a couple of soak seeds and requires zero
// invariant violations and no unrecovered operations.
func TestChaosCkptStoreSoak(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		row, err := ChaosCkptStoreSoak(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if row.Violations != 0 {
			t.Errorf("seed %d: %d invariant violations: %s", seed, row.Violations, row.ViolationText)
		}
		if row.Unrecovered != 0 {
			t.Errorf("seed %d: %d unrecovered operations", seed, row.Unrecovered)
		}
		if row.FaultsInjected == 0 {
			t.Errorf("seed %d: soak injected no faults — schedule inert", seed)
		}
		if row.Scope != "ckptstore" {
			t.Errorf("seed %d: scope %q", seed, row.Scope)
		}
	}
}
