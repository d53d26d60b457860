package experiments

import "testing"

// TestCkptStoreProperties requires the ablation's headline properties:
// idle delta re-swap-out at least 2× faster than the full one, and the
// peer-RAM restore beating the local-disk restore for every model.
// TestExperimentGoldens pins the artifact's bytes.
func TestCkptStoreProperties(t *testing.T) {
	first, err := AblationCheckpointStore()
	if err != nil {
		t.Fatal(err)
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
