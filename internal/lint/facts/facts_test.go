package facts_test

import (
	"testing"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/facts"
	"swapservellm/internal/lint/linttest"
)

func load(t *testing.T, pkgs ...string) *facts.Facts {
	t.Helper()
	fset, loaded := linttest.Load(t, "testdata", pkgs...)
	return facts.Of(&lint.Program{Fset: fset, Packages: loaded})
}

// Mutual recursion forms one SCC: propagation must converge with both
// members carrying the blocking summary (and sharing it), and the
// summary must flow to callers outside the component.
func TestSCCConvergence(t *testing.T) {
	f := load(t, "example.com/rec")
	a := f.Summaries["example.com/rec.a"]
	b := f.Summaries["example.com/rec.b"]
	if a == nil || b == nil {
		t.Fatalf("missing summaries: a=%v b=%v", a, b)
	}
	if a.Block == nil {
		t.Errorf("a blocks directly; summary lost it")
	}
	if b.Block == nil {
		t.Errorf("b reaches a's block through the cycle; summary did not converge")
	}
	if a != b {
		t.Errorf("SCC members must share one summary: a=%p b=%p", a, b)
	}
	if c := f.Summaries["example.com/rec.c"]; c == nil || c.Block == nil {
		t.Errorf("c reaches the blocking SCC; summary = %+v", c)
	}
	if p := f.Summaries["example.com/rec.pure"]; p != nil && (p.Block != nil || p.Wait != nil) {
		t.Errorf("pure must not block or wait: %+v", p)
	}
}

// A call through an interface must be widened to every implementation:
// one blocking implementation taints the interface call, while a
// direct call to the calm implementation stays clean.
func TestInterfaceWidening(t *testing.T) {
	f := load(t, "example.com/iface")
	if m := f.Summaries["(example.com/iface.blocky).M"]; m == nil || m.Block == nil {
		t.Fatalf("blocky.M blocks; summary = %+v", m)
	}
	use := f.Summaries["example.com/iface.use"]
	if use == nil || use.Block == nil {
		t.Errorf("use calls through the interface and must inherit blocky.M's block; summary = %+v", use)
	}
	direct := f.Summaries["example.com/iface.direct"]
	if direct != nil && direct.Block != nil {
		t.Errorf("direct calls only the calm implementation: %+v", direct)
	}
}

// Test-file functions are walked into Unsummarized only; a *Locked
// method's receiver mutex is held on entry but is not an acquisition;
// a deferred unlock is a deferred release that leaves the lock held.
func TestOneWalkTwoAudiences(t *testing.T) {
	f := load(t, "example.com/split")
	if s := f.Summaries["example.com/split.drain"]; s != nil {
		t.Errorf("test function drain has a summary: %+v", s)
	}
	byKey := map[string]*facts.FuncFacts{}
	for _, ff := range f.Funcs {
		byKey[ff.Key] = ff
	}
	if len(f.Unsummarized) != 1 || f.Unsummarized[0].Key != "example.com/split.drain" {
		t.Fatalf("Unsummarized = %v, want just drain", f.Unsummarized)
	}
	if byKey["example.com/split.drain"] != nil {
		t.Error("drain is listed among the summarized functions")
	}

	sendLocked := byKey["(*example.com/split.box).sendLocked"]
	if sendLocked == nil || len(sendLocked.Ops) != 1 {
		t.Fatalf("sendLocked ops = %+v, want one channel send", sendLocked)
	}
	op := &sendLocked.Ops[0]
	if len(op.Held) != 1 || !op.Held[0].Seeded || op.Held[0].Class.Expr != "b.mu" || op.Held[0].Class.Name != "split.box.mu" {
		t.Errorf("sendLocked's send holds %+v, want the seeded b.mu", op.Held)
	}
	if acq := op.Acquired(); len(acq) != 0 {
		t.Errorf("Acquired() = %+v, want no acquisition", acq)
	}

	var kinds []facts.OpKind
	send := byKey["(*example.com/split.box).Send"]
	for _, op := range send.Ops {
		kinds = append(kinds, op.Kind)
	}
	if len(kinds) != 3 || kinds[0] != facts.OpAcquire || kinds[1] != facts.OpRelease || kinds[2] != facts.OpBlock {
		t.Fatalf("Send ops = %v, want acquire, deferred release, block", kinds)
	}
	if rel := send.Ops[1]; !rel.Deferred || rel.Class.Expr != "b.mu" {
		t.Errorf("release = %+v, want a deferred b.mu unlock", rel)
	}
	if held := send.Ops[2].Acquired(); len(held) != 1 || held[0].Class.Name != "split.box.mu" {
		t.Errorf("the send after the deferred unlock holds %+v, want split.box.mu", held)
	}
}
