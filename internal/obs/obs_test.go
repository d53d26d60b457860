package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"swapservellm/internal/metrics"
	"swapservellm/internal/simclock"
)

var testEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newTestTracer() (*Tracer, *simclock.Manual) {
	clk := simclock.NewManual(testEpoch)
	return NewTracer(clk), clk
}

func TestStartWithoutTracerIsNil(t *testing.T) {
	ctx, span := Start(context.Background(), "op")
	if span != nil {
		t.Fatalf("expected nil span without tracer, got %v", span)
	}
	// Every nil-span method must be a safe no-op.
	span.SetAttr(String("k", "v"))
	span.Event("e")
	span.Fail(errors.New("x"))
	span.End()
	span.EndErr(nil)
	if span.Duration() != 0 || span.ID() != 0 || span.Name() != "" {
		t.Fatal("nil span accessors must return zero values")
	}
	if SpanFrom(ctx) != nil || TracerFrom(ctx) != nil {
		t.Fatal("context must stay empty without a tracer")
	}
}

func TestSpanNesting(t *testing.T) {
	tr, clk := newTestTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := Start(ctx, "request", String("model", "m"))
	clk.Advance(10 * time.Millisecond)
	ctx2, child := Start(ctx1, "swap.in")
	clk.Advance(5 * time.Millisecond)
	_, grand := Start(ctx2, "ckpt.restore")
	grand.Event("chunk", Int("done", 1))
	clk.Advance(5 * time.Millisecond)
	grand.End()
	child.End()
	clk.Advance(2 * time.Millisecond)
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(spans))
	}
	if spans[0].Name != "request" || spans[0].Parent != 0 {
		t.Fatalf("root wrong: %+v", spans[0])
	}
	if spans[1].Name != "swap.in" || spans[1].Parent != spans[0].ID {
		t.Fatalf("child wrong: %+v", spans[1])
	}
	if spans[2].Name != "ckpt.restore" || spans[2].Parent != spans[1].ID {
		t.Fatalf("grandchild wrong: %+v", spans[2])
	}
	if len(spans[2].Events) != 1 || spans[2].Events[0].Name != "chunk" {
		t.Fatalf("grandchild events wrong: %+v", spans[2].Events)
	}
	if got := spans[0].End.Sub(spans[0].Start); got != 22*time.Millisecond {
		t.Fatalf("root duration = %v, want 22ms", got)
	}
	if got := spans[2].End.Sub(spans[2].Start); got != 5*time.Millisecond {
		t.Fatalf("grandchild duration = %v, want 5ms", got)
	}
}

func TestSpanEndIdempotentAndFail(t *testing.T) {
	tr, clk := newTestTracer()
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "op")
	clk.Advance(time.Millisecond)
	s.EndErr(errors.New("boom"))
	clk.Advance(time.Hour)
	s.End() // must not move the end time
	d := tr.Snapshot()[0]
	if !d.Ended || d.Status != "boom" {
		t.Fatalf("span not ended/failed: %+v", d)
	}
	if got := d.End.Sub(d.Start); got != time.Millisecond {
		t.Fatalf("duration moved on second End: %v", got)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr, _ := newTestTracer()
	ctx := WithTracer(context.Background(), tr)
	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c, s := Start(ctx, fmt.Sprintf("worker-%d", w))
				s.SetAttr(Int("iter", i))
				_, child := Start(c, "inner")
				child.Event("tick")
				child.End()
				s.End()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.SpanCount(); got != workers*perWorker*2 {
		t.Fatalf("span count = %d, want %d", got, workers*perWorker*2)
	}
	// Every inner span must parent to a worker span of its own goroutine.
	byID := make(map[int64]SpanData)
	for _, s := range tr.Snapshot() {
		byID[s.ID] = s
	}
	for _, s := range byID {
		if s.Name == "inner" {
			p, ok := byID[s.Parent]
			if !ok || !strings.HasPrefix(p.Name, "worker-") {
				t.Fatalf("inner span has bad parent: %+v", s)
			}
		}
	}
}

func TestRetentionCap(t *testing.T) {
	tr, _ := newTestTracer()
	tr.SetMaxSpans(2)
	ctx := WithTracer(context.Background(), tr)
	_, a := Start(ctx, "a")
	_, b := Start(ctx, "b")
	cctx, c := Start(ctx, "c")
	if c != nil {
		t.Fatal("span over cap must be nil")
	}
	if SpanFrom(cctx) != nil {
		t.Fatal("dropped span must not be installed on ctx")
	}
	a.End()
	b.End()
	if tr.DroppedSpans() != 1 || tr.SpanCount() != 2 {
		t.Fatalf("dropped=%d count=%d", tr.DroppedSpans(), tr.SpanCount())
	}
}

func TestHistogramObservation(t *testing.T) {
	tr, clk := newTestTracer()
	reg := metrics.NewRegistry()
	tr.SetRegistry(reg)
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "swap.out")
	clk.Advance(30 * time.Millisecond)
	s.End()
	h := reg.Histogram("span_swap.out")
	if h.Count() != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count())
	}
}

func TestWriteTraceEventsAndValidate(t *testing.T) {
	tr, clk := newTestTracer()
	ctx := WithTracer(context.Background(), tr)
	rctx, root := Start(ctx, "exchange", String("victim", "a"), String("target", "b"))
	clk.Advance(4 * time.Millisecond)
	_, child := Start(rctx, "ckpt.checkpoint")
	child.Event("chunk", Int64("done_bytes", 1<<30))
	clk.Advance(6 * time.Millisecond)
	child.End()
	root.End()
	_, open := Start(ctx, "in-flight")
	_ = open // intentionally left unended

	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceEvents(buf.Bytes()); err != nil {
		t.Fatalf("emitted trace failed validation: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{`"exchange"`, `"ckpt.checkpoint"`, `"chunk"`, `"in_progress"`, `"victim"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}

	if err := ValidateTraceEvents([]byte(`{"foo":1}`)); err == nil {
		t.Fatal("validation must reject traces without traceEvents")
	}
	if err := ValidateTraceEvents([]byte(`not json`)); err == nil {
		t.Fatal("validation must reject non-JSON")
	}
	if err := ValidateTraceEvents([]byte(`{"traceEvents":[{"name":"x","ph":"Q","ts":0}]}`)); err == nil {
		t.Fatal("validation must reject unknown phases")
	}
}

func TestWriteTreeDeterministic(t *testing.T) {
	build := func(advance time.Duration) string {
		tr, clk := newTestTracer()
		ctx := WithTracer(context.Background(), tr)
		rctx, root := Start(ctx, "exchange", String("victim", "a"))
		clk.Advance(advance)
		_, c1 := Start(rctx, "swap.out")
		c1.Event("fault", String("site", "ckpt_chunk"))
		c1.End()
		_, c2 := Start(rctx, "swap.in")
		c2.End()
		root.EndErr(errors.New("injected"))
		var buf bytes.Buffer
		if err := tr.WriteTree(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	// Different timings, identical structure → identical tree.
	a := build(time.Millisecond)
	b := build(time.Hour)
	if a != b {
		t.Fatalf("tree not timing-independent:\n%s\nvs\n%s", a, b)
	}
	// Both children start at the same simulated instant, so the canonical
	// order falls back to the span name: swap.in sorts before swap.out.
	want := "- exchange victim=a !error=\"injected\"\n" +
		"  - swap.in\n" +
		"  - swap.out\n" +
		"    * fault site=ckpt_chunk\n"
	if a != want {
		t.Fatalf("tree rendering changed:\n%q\nwant\n%q", a, want)
	}
}

func TestHandler(t *testing.T) {
	tr, _ := newTestTracer()
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "op")
	s.End()
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if err := ValidateTraceEvents(rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}

	var nilTr *Tracer
	rec = httptest.NewRecorder()
	nilTr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("nil tracer handler status %d", rec.Code)
	}
	if err := ValidateTraceEvents(rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestAnnotateFault(t *testing.T) {
	tr, _ := newTestTracer()
	ctx := WithTracer(context.Background(), tr)
	sctx, s := Start(ctx, "op")
	AnnotateFault(sctx, "proxy", errors.New("injected fault"))
	AnnotateFault(sctx, "proxy", nil) // nil error: no event
	s.End()
	d := tr.Snapshot()[0]
	if len(d.Events) != 1 || d.Events[0].Name != "fault" {
		t.Fatalf("fault events wrong: %+v", d.Events)
	}
}

// TestIntAttrsExportFormatted checks that integer attributes, which stay
// unformatted until a recording span stores them, export the same JSON
// and tree bytes as their decimal strings did, and that an untraced call
// site formats nothing.
func TestIntAttrsExportFormatted(t *testing.T) {
	record := func(num func(string, int64) Attr) (string, string) {
		tr, clk := newTestTracer()
		ctx := WithTracer(context.Background(), tr)
		rctx, root := Start(ctx, "reserve", String("owner", "m"), num("bytes", 72<<30))
		root.SetAttr(num("dedup_bytes", 0), num("new_bytes", -3))
		_, child := Start(rctx, "ckpt.restore", num("bytes", 1<<30))
		child.Event("chunk", String("dir", "h2d"), num("done_bytes", 1<<30), num("total_bytes", 1<<30))
		clk.Advance(time.Millisecond)
		child.End()
		root.End()
		var js, tree bytes.Buffer
		if err := tr.WriteTraceEvents(&js); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteTree(&tree); err != nil {
			t.Fatal(err)
		}
		return js.String(), tree.String()
	}
	gotJS, gotTree := record(Int64)
	wantJS, wantTree := record(func(k string, v int64) Attr { return String(k, fmt.Sprint(v)) })
	if gotJS != wantJS {
		t.Errorf("trace JSON differs:\n got %s\nwant %s", gotJS, wantJS)
	}
	if gotTree != wantTree {
		t.Errorf("span tree differs:\n got %s\nwant %s", gotTree, wantTree)
	}
	if !strings.Contains(gotJS, `"bytes": "77309411328"`) || !strings.Contains(gotJS, `"new_bytes": "-3"`) {
		t.Errorf("integer attributes missing from the export:\n%s", gotJS)
	}

	var untraced *Span
	n := int64(1 << 30)
	if a := testing.AllocsPerRun(100, func() {
		untraced.SetAttr(Int64("bytes", n), Int("chunks", 72))
		untraced.Event("chunk", Int64("done_bytes", n))
	}); a != 0 {
		t.Errorf("untraced integer attributes allocate %v times, want 0", a)
	}
}
