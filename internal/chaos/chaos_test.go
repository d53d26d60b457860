package chaos

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestNilInjectorIsNoOp: components hold a possibly-nil injector and
// call it unconditionally.
func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if out := in.At(SiteCkptLock); out.Err != nil || out.Delay != 0 {
		t.Fatalf("nil injector produced %+v", out)
	}
	if in.TotalFired() != 0 || in.Stats() != nil || in.Seed() != 0 {
		t.Fatal("nil injector reported activity")
	}
}

// TestFailNextMatchesLegacyOneShot: FailNext fails exactly the next n
// occurrences, then stays quiet — the old InjectFault contract.
func TestFailNextMatchesLegacyOneShot(t *testing.T) {
	in := FailNext(SiteCkptRestore, 2)
	for i := 0; i < 2; i++ {
		if out := in.At(SiteCkptRestore); !errors.Is(out.Err, ErrInjected) {
			t.Fatalf("occurrence %d: err = %v, want injected", i, out.Err)
		}
	}
	if out := in.At(SiteCkptRestore); out.Err != nil {
		t.Fatalf("third occurrence fired: %v", out.Err)
	}
	// Other sites are untouched.
	if out := in.At(SiteCkptLock); out.Err != nil {
		t.Fatalf("unrelated site fired: %v", out.Err)
	}
}

// TestAfterSkipsOccurrences: an after=k rule leaves the first k
// occurrences alone and fires on occurrence k exactly.
func TestAfterSkipsOccurrences(t *testing.T) {
	in := NewInjector(Plan{Seed: 9, Rules: []Rule{{Site: SiteSSE, After: 3, Times: 1}}})
	for i := 0; i < 3; i++ {
		if out := in.At(SiteSSE); out.Err != nil {
			t.Fatalf("occurrence %d fired early: %v", i, out.Err)
		}
	}
	if out := in.At(SiteSSE); !errors.Is(out.Err, ErrInjected) {
		t.Fatalf("occurrence 3 did not fire: %v", out.Err)
	}
	if out := in.At(SiteSSE); out.Err != nil {
		t.Fatalf("times=1 rule fired twice: %v", out.Err)
	}
}

// TestDelayRule: delay rules stall instead of erroring.
func TestDelayRule(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{{Site: SiteCkptPCIe, Delay: 25 * time.Millisecond}}})
	out := in.At(SiteCkptPCIe)
	if out.Err != nil || out.Delay != 25*time.Millisecond {
		t.Fatalf("delay outcome = %+v", out)
	}
}

// TestDeterministicAcrossInterleavings: decisions at one site depend
// only on (seed, site, occurrence), not on activity at other sites or
// on goroutine interleaving.
func TestDeterministicAcrossInterleavings(t *testing.T) {
	plan := MustParsePlan("seed=1234; cudackpt.restore: p=0.3; cudackpt.checkpoint: p=0.3")

	sequence := func(interleave bool) []bool {
		in := NewInjector(plan)
		var out []bool
		for i := 0; i < 200; i++ {
			if interleave {
				// Unrelated traffic at another site between every draw.
				in.At(SiteCkptCheckpoint)
				in.At(SiteHeartbeat)
			}
			out = append(out, in.At(SiteCkptRestore).Err != nil)
		}
		return out
	}

	clean, noisy := sequence(false), sequence(true)
	fired := 0
	for i := range clean {
		if clean[i] != noisy[i] {
			t.Fatalf("occurrence %d: decision changed with cross-site interleaving", i)
		}
		if clean[i] {
			fired++
		}
	}
	// p=0.3 over 200 draws: sanity-check the hash is not degenerate.
	if fired < 30 || fired > 90 {
		t.Fatalf("p=0.3 fired %d/200 times", fired)
	}

	// A different seed produces a different schedule.
	other := NewInjector(plan.WithSeed(4321))
	same := true
	for i := 0; i < 200; i++ {
		if (other.At(SiteCkptRestore).Err != nil) != clean[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1234 and 4321 produced identical schedules")
	}
}

// TestSubjectDrawsIgnoreInterleaving: AtFor's decisions for one subject
// depend only on that subject's own occurrences, however other
// subjects' consultations of the same site interleave with them — the
// property that makes a victim's checkpoint and a target's restore,
// stepping their chunks at the same instants, replay exactly.
func TestSubjectDrawsIgnoreInterleaving(t *testing.T) {
	plan := MustParsePlan("seed=99; cudackpt.chunk: p=0.3")
	sequence := func(in *Injector, interleave bool) []bool {
		var out []bool
		for i := 0; i < 200; i++ {
			if interleave && i%3 != 1 {
				in.AtFor(SiteCkptChunk, "target")
			}
			out = append(out, in.AtFor(SiteCkptChunk, "victim").Err != nil)
		}
		return out
	}
	alone := sequence(NewInjector(plan), false)
	mixed := sequence(NewInjector(plan), true)
	fired := 0
	for i := range alone {
		if alone[i] != mixed[i] {
			t.Fatalf("occurrence %d: victim's decision changed when the target interleaved", i)
		}
		if alone[i] {
			fired++
		}
	}
	if fired < 30 || fired > 90 {
		t.Fatalf("p=0.3 fired %d/200 times", fired)
	}
	// Subjects draw distinct schedules, and an empty subject is At.
	in, other := NewInjector(plan), NewInjector(plan)
	same := true
	for i := 0; i < 200; i++ {
		if (in.AtFor(SiteCkptChunk, "target").Err != nil) != alone[i] {
			same = false
		}
		if (in.At(SiteCkptLock).Err != nil) != (other.AtFor(SiteCkptLock, "").Err != nil) {
			t.Fatalf("occurrence %d: AtFor with no subject differs from At", i)
		}
	}
	if same {
		t.Fatal("subjects victim and target drew identical schedules")
	}
}

// TestAfterAndTimesCountAcrossSubjects: after= and times= keep their
// per-site meaning under AtFor — FailNext fails the site's next n
// occurrences whichever subjects they belong to, and after=k skips the
// site's first k.
func TestAfterAndTimesCountAcrossSubjects(t *testing.T) {
	in := FailNext(SiteCkptRestore, 2)
	for i, subject := range []string{"p1", "p2"} {
		if out := in.AtFor(SiteCkptRestore, subject); !errors.Is(out.Err, ErrInjected) {
			t.Fatalf("occurrence %d (%s): err = %v, want injected", i, subject, out.Err)
		}
	}
	if out := in.AtFor(SiteCkptRestore, "p3"); out.Err != nil {
		t.Fatalf("third occurrence fired: %v", out.Err)
	}

	in = NewInjector(Plan{Seed: 9, Rules: []Rule{{Site: SiteCkptChunk, After: 2, Times: 1}}})
	for i, subject := range []string{"p1", "p2"} {
		if out := in.AtFor(SiteCkptChunk, subject); out.Err != nil {
			t.Fatalf("occurrence %d (%s) fired early: %v", i, subject, out.Err)
		}
	}
	if out := in.AtFor(SiteCkptChunk, "p1"); !errors.Is(out.Err, ErrInjected) {
		t.Fatalf("site occurrence 2 did not fire: %v", out.Err)
	}
	if out := in.AtFor(SiteCkptChunk, "p2"); out.Err != nil {
		t.Fatalf("times=1 rule fired twice: %v", out.Err)
	}
}

// TestConcurrentUse: the injector is safe under concurrent consultation
// and the total occurrence accounting stays exact.
func TestConcurrentUse(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, Rules: []Rule{{Site: SiteCkptLock, P: 0.5}}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				in.At(SiteCkptLock)
			}
		}()
	}
	wg.Wait()
	st := in.Stats()[SiteCkptLock]
	if st.Occurrences != 2000 {
		t.Fatalf("occurrences = %d, want 2000", st.Occurrences)
	}
	if st.Fired == 0 || st.Fired == 2000 {
		t.Fatalf("p=0.5 fired %d/2000", st.Fired)
	}
	if in.TotalFired() != st.Fired {
		t.Fatalf("TotalFired = %d, site fired = %d", in.TotalFired(), st.Fired)
	}
}

// TestTraceRecordsInOrder: the trace keeps a stable, sequenced history
// and tolerates a nil receiver.
func TestTraceRecordsInOrder(t *testing.T) {
	var nilTrace *Trace
	nilTrace.Record("ckpt", "p1", "running", "locked")
	if nilTrace.Len() != 0 || nilTrace.Events() != nil {
		t.Fatal("nil trace recorded")
	}

	tr := NewTrace()
	tr.Record("ckpt", "p1", "running", "locked")
	tr.Record("ckpt", "p1", "locked", "checkpointed")
	ev := tr.Events()
	if len(ev) != 2 || ev[0].Seq != 0 || ev[1].Seq != 1 {
		t.Fatalf("events = %+v", ev)
	}
	if ev[1].From != "locked" || ev[1].To != "checkpointed" {
		t.Fatalf("event 1 = %+v", ev[1])
	}
}
