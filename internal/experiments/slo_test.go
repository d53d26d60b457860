package experiments

import (
	"reflect"
	"testing"
)

// TestSLOAblationProperties checks the acceptance properties of the SLO
// ablation: the predictive arm must beat the reactive baseline on
// high-priority SLO attainment, shedding must be confined to the lowest
// class, and the whole run must be deterministic at full precision
// (TestExperimentGoldens pins the artifact's rounded bytes).
func TestSLOAblationProperties(t *testing.T) {
	res := SLOAblation(42)

	rows := map[string]map[string]SLOClassRow{}
	for _, r := range res.Rows {
		if rows[r.Arm] == nil {
			rows[r.Arm] = map[string]SLOClassRow{}
		}
		rows[r.Arm][r.Class] = r
	}
	for _, arm := range []string{"reactive", "predictive"} {
		for _, class := range []string{"interactive", "standard", "batch"} {
			r, ok := rows[arm][class]
			if !ok {
				t.Fatalf("missing row %s/%s", arm, class)
			}
			if r.Offered == 0 || r.Admitted+r.Shed != r.Offered {
				t.Fatalf("row %s/%s inconsistent: %+v", arm, class, r)
			}
		}
	}

	// The headline claim: predictive beats reactive on the top class.
	ri, pi := rows["reactive"]["interactive"], rows["predictive"]["interactive"]
	if pi.AttainPct <= ri.AttainPct {
		t.Errorf("predictive interactive attainment %.2f%% not above reactive %.2f%%",
			pi.AttainPct, ri.AttainPct)
	}

	// Sheds exist and are confined to the lowest class.
	if rows["predictive"]["batch"].Shed == 0 {
		t.Error("predictive arm shed nothing: admission control never engaged")
	}
	for _, arm := range []string{"reactive", "predictive"} {
		for _, class := range []string{"interactive", "standard"} {
			if n := rows[arm][class].Shed; n != 0 {
				t.Errorf("%s shed %d %s requests; shedding must stay in batch", arm, n, class)
			}
		}
	}
	// The reactive arm has no admission control at all.
	if n := rows["reactive"]["batch"].Shed; n != 0 {
		t.Errorf("reactive arm shed %d requests without an admission controller", n)
	}

	// The pre-warmer actually worked ahead of demand.
	for _, a := range res.Arms {
		switch a.Arm {
		case "reactive":
			if a.PrefetchIssued != 0 {
				t.Errorf("reactive arm issued %d prefetches", a.PrefetchIssued)
			}
		case "predictive":
			if a.PrefetchIssued == 0 || a.PrefetchHits == 0 {
				t.Errorf("predictive arm prefetch counters empty: %+v", a)
			}
			if a.PrefetchHits+a.PrefetchMisses > a.PrefetchIssued {
				t.Errorf("prefetch accounting inconsistent: %+v", a)
			}
		}
	}

	// Determinism: an identical second run yields identical rows.
	if res2 := SLOAblation(42); !reflect.DeepEqual(res, res2) {
		t.Error("two SLOAblation(42) runs differ")
	}
}
