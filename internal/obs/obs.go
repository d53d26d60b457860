// Package obs is the swap-lifecycle tracing layer: a stdlib-only span
// tracer that attributes where each millisecond of a swap goes (lock,
// checkpoint, restore, unlock, queue wait, TTFT) the way ServerlessLLM
// and Torpor justify their designs — with a causal, per-request and
// per-swap timeline rather than aggregate counters.
//
// Spans carry parent links, attributes, and point events, and propagate
// through the system exclusively via context.Context: a component calls
// obs.Start(ctx, name) and gets back a child context carrying the new
// span. When no Tracer is installed on the context the returned span is
// nil, and every Span method is nil-safe, so instrumented code pays one
// context lookup and nothing else when tracing is off.
//
// Finished traces export two ways: Chrome/Perfetto trace_event JSON
// (WriteTraceEvents — open chrome://tracing or https://ui.perfetto.dev
// and drop the file in) and a deterministic span-tree rendering
// (WriteTree) that omits timestamps so golden tests can pin the causal
// structure of a fixed seed byte-for-byte. Span durations additionally
// feed per-phase latency histograms ("span_<name>") in the existing
// metrics registry when one is attached.
//
// Timestamps come from the injected simclock.Clock, so traces measure
// simulated time — the same timeline every latency histogram in the
// repository reports.
package obs

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"swapservellm/internal/metrics"
	"swapservellm/internal/simclock"
)

// Attr is one key/value annotation on a span or event. Values are
// strings; use the typed constructors for other kinds. An integer
// attribute keeps its int64 until a recording span stores it, so a call
// site whose span is nil (tracing off) formats nothing.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
	num   int64
	isNum bool // Value is num, not yet formatted
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int64 builds an integer attribute.
func Int64(key string, value int64) Attr {
	return Attr{Key: key, num: value, isNum: true}
}

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Int64(key, int64(value)) }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(value)}
}

// Float64 builds a floating-point attribute (predicted rates,
// attainment ratios). %g keeps the rendering compact and stable.
func Float64(key string, value float64) Attr {
	return Attr{Key: key, Value: fmt.Sprintf("%g", value)}
}

// appendAttrs appends attrs to dst with every integer value formatted:
// what a span stores and exports is plain key/value strings.
func appendAttrs(dst, attrs []Attr) []Attr {
	dst = slices.Grow(dst, len(attrs))
	for _, a := range attrs {
		if a.isNum {
			a = Attr{Key: a.Key, Value: strconv.FormatInt(a.num, 10)}
		}
		dst = append(dst, a)
	}
	return dst
}

// Event is a point-in-time annotation inside a span (a committed
// transfer chunk, an injected fault, a failover attempt).
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// DefaultMaxSpans bounds how many spans a tracer retains; beyond it new
// Start calls return nil spans (counted in DroppedSpans) so a
// long-running daemon's /debug/trace endpoint cannot grow without
// bound.
const DefaultMaxSpans = 1 << 18

// Tracer collects spans on one simulated timeline. All methods are safe
// for concurrent use; a nil *Tracer is a valid no-op tracer.
type Tracer struct {
	clock simclock.Clock

	mu      sync.Mutex
	origin  time.Time
	reg     *metrics.Registry
	nextID  int64
	spans   []*Span
	max     int
	dropped int64
}

// NewTracer builds a tracer whose timestamps come from clock. The trace
// origin (ts=0 in the export) is the clock's current time.
func NewTracer(clock simclock.Clock) *Tracer {
	return &Tracer{clock: clock, origin: clock.Now(), max: DefaultMaxSpans}
}

// SetRegistry attaches a metrics registry: every ended span observes
// its duration in the histogram "span_<name>", giving per-phase latency
// distributions alongside the causal timeline.
func (t *Tracer) SetRegistry(reg *metrics.Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg = reg
}

// SetMaxSpans overrides the span retention cap (n <= 0 restores the
// default).
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.max = n
}

// DroppedSpans reports how many spans the retention cap discarded.
func (t *Tracer) DroppedSpans() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanCount reports how many spans the tracer has retained.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// start allocates and registers a span. parent is 0 for roots.
func (t *Tracer) start(parent int64, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	now := t.clock.Now()
	t.mu.Lock()
	if len(t.spans) >= t.max {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	t.nextID++
	s := &Span{
		t:      t,
		id:     t.nextID,
		parent: parent,
		name:   name,
		start:  now,
		attrs:  appendAttrs(nil, attrs),
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Span is one timed operation in a trace. The zero value is unusable;
// spans come from Start. A nil *Span is valid: every method no-ops, so
// instrumentation does not need tracing-enabled checks.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	mu     sync.Mutex
	end    time.Time
	ended  bool
	status string // non-empty marks the span failed
	attrs  []Attr
	events []Event
}

// ID returns the span's trace-unique identifier (0 for nil spans).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Name returns the span's operation name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr adds (or appends, for repeated keys) an attribute.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = appendAttrs(s.attrs, attrs)
	s.mu.Unlock()
}

// Event records a point-in-time annotation at the clock's current time.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	now := s.t.clock.Now()
	s.mu.Lock()
	s.events = append(s.events, Event{Name: name, Time: now, Attrs: appendAttrs(nil, attrs)})
	s.mu.Unlock()
}

// Fail marks the span failed with err's message (nil err is ignored).
// The span stays open; pair with End (or use EndErr).
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.status = err.Error()
	s.mu.Unlock()
}

// End closes the span at the clock's current time and, when the tracer
// has a registry attached, observes the duration in the per-phase
// histogram "span_<name>". Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.t.clock.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = now
	dur := s.end.Sub(s.start)
	name := s.name
	s.mu.Unlock()

	s.t.mu.Lock()
	reg := s.t.reg
	s.t.mu.Unlock()
	if reg != nil {
		reg.Histogram("span_" + name).Observe(dur)
	}
}

// EndErr is End plus Fail(err) when err is non-nil — the usual epilogue
// of a traced operation that returns an error.
func (s *Span) EndErr(err error) {
	s.Fail(err)
	s.End()
}

// Duration returns end-start for ended spans, and the live duration so
// far otherwise (zero for nil spans).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	ended, end := s.ended, s.end
	s.mu.Unlock()
	if ended {
		return end.Sub(s.start)
	}
	return s.t.clock.Now().Sub(s.start)
}

// SpanData is an immutable snapshot of one span.
type SpanData struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Ended  bool      `json:"ended"`
	Status string    `json:"status,omitempty"`
	Attrs  []Attr    `json:"attrs,omitempty"`
	Events []Event   `json:"events,omitempty"`
}

// Snapshot captures every retained span (ended or not) in start order
// (ties broken by ID, which increases in Start order).
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()

	out := make([]SpanData, 0, len(spans))
	for _, s := range spans {
		s.mu.Lock()
		d := SpanData{
			ID:     s.id,
			Parent: s.parent,
			Name:   s.name,
			Start:  s.start,
			End:    s.end,
			Ended:  s.ended,
			Status: s.status,
			Attrs:  append([]Attr(nil), s.attrs...),
			Events: append([]Event(nil), s.events...),
		}
		s.mu.Unlock()
		out = append(out, d)
	}
	sortSpanData(out)
	return out
}

// sortSpanData orders snapshots by (start, id) so exports are stable
// regardless of internal retention order.
func sortSpanData(ds []SpanData) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && spanLess(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func spanLess(a, b SpanData) bool {
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	return a.ID < b.ID
}
