// Package metrics provides the lightweight instrumentation SwapServeLLM
// uses to record experiment measurements: counters, gauges, duration
// histograms with summary statistics, and timestamped series, with CSV
// export for the paper's analysis scripts.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. It is lock-free: the
// value is a float64's bits in an atomic word.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by delta (negative deltas are ignored).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous value, lock-free as Counter is.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates duration observations and reports summary
// statistics. Observations are retained (the experiment scale is modest)
// so exact percentiles are available.
type Histogram struct {
	mu  sync.Mutex
	obs []time.Duration
	sum time.Duration
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.obs = append(h.obs, d)
	h.sum += d
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.obs)
}

// Mean returns the average observation (zero when empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.obs) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.obs))
}

// Stddev returns the sample standard deviation (zero for fewer than two
// observations).
func (h *Histogram) Stddev() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.obs)
	if n < 2 {
		return 0
	}
	mean := float64(h.sum) / float64(n)
	var ss float64
	for _, d := range h.obs {
		diff := float64(d) - mean
		ss += diff * diff
	}
	return time.Duration(math.Sqrt(ss / float64(n-1)))
}

// Quantile returns the q-th exact quantile (q in [0,1]) of the
// observations, or zero when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.obs) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(h.obs))
	copy(sorted, h.obs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// CountBelow returns how many observations are at or under d — the
// numerator of an SLO-attainment ratio.
func (h *Histogram) CountBelow(d time.Duration) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, o := range h.obs {
		if o <= d {
			n++
		}
	}
	return n
}

// Min returns the smallest observation (zero when empty).
func (h *Histogram) Min() time.Duration { return h.Quantile(0) }

// Max returns the largest observation (zero when empty).
func (h *Histogram) Max() time.Duration { return h.Quantile(1) }

// Point is one timestamped sample in a series.
type Point struct {
	T time.Time
	V float64
}

// Series is an append-only timestamped sequence (GPU utilization over a
// month, token volume per hour, ...).
type Series struct {
	mu  sync.Mutex
	pts []Point
}

// Append adds a sample.
func (s *Series) Append(t time.Time, v float64) {
	s.mu.Lock()
	s.pts = append(s.pts, Point{T: t, V: v})
	s.mu.Unlock()
}

// Points returns a copy of the samples in append order.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
	return out
}

// Len returns the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pts)
}

// Registry is a named collection of metrics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		series:     make(map[string]*Series),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Series returns (creating if needed) the named series.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// Handle finds one named metric of a registry once, for a hot path
// that would otherwise build and hash its name on every update. The
// first Get creates the metric as the registry's accessor does, so a
// metric nothing has touched stays out of every export; later calls
// return the same pointer. Build one per name, at setup, with
// CounterHandle, GaugeHandle or HistogramHandle.
type Handle[T any] struct {
	find func(string) *T
	name string
	m    atomic.Pointer[T]
}

// Get returns the metric, creating it on first use.
func (h *Handle[T]) Get() *T {
	if m := h.m.Load(); m != nil {
		return m
	}
	m := h.find(h.name)
	h.m.Store(m)
	return m
}

// CounterHandle returns a handle on the named counter.
func (r *Registry) CounterHandle(name string) *Handle[Counter] {
	return &Handle[Counter]{find: r.Counter, name: name}
}

// GaugeHandle returns a handle on the named gauge.
func (r *Registry) GaugeHandle(name string) *Handle[Gauge] {
	return &Handle[Gauge]{find: r.Gauge, name: name}
}

// HistogramHandle returns a handle on the named histogram.
func (r *Registry) HistogramHandle(name string) *Handle[Histogram] {
	return &Handle[Histogram]{find: r.Histogram, name: name}
}

// sortedKeys returns a map's keys in sorted order, so every exporter
// emits metrics deterministically regardless of registration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteCSV exports all metrics: one "kind,name,field,value" row per scalar
// and one "series,name,timestamp,value" row per sample. Metric names are
// sorted before emission within each kind (counters, then gauges, then
// histograms, then series), so output is byte-identical across runs.
func (r *Registry) WriteCSV(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	var rows []string
	for _, name := range sortedKeys(r.counters) {
		rows = append(rows, fmt.Sprintf("counter,%s,value,%g", name, r.counters[name].Value()))
	}
	for _, name := range sortedKeys(r.gauges) {
		rows = append(rows, fmt.Sprintf("gauge,%s,value,%g", name, r.gauges[name].Value()))
	}
	for _, name := range sortedKeys(r.histograms) {
		h := r.histograms[name]
		rows = append(rows,
			fmt.Sprintf("histogram,%s,count,%d", name, h.Count()),
			fmt.Sprintf("histogram,%s,mean_s,%.6f", name, h.Mean().Seconds()),
			fmt.Sprintf("histogram,%s,p50_s,%.6f", name, h.Quantile(0.5).Seconds()),
			fmt.Sprintf("histogram,%s,p99_s,%.6f", name, h.Quantile(0.99).Seconds()),
		)
	}
	for _, name := range sortedKeys(r.series) {
		for _, p := range r.series[name].Points() {
			rows = append(rows, fmt.Sprintf("series,%s,%d,%.6f", name, p.T.Unix(), p.V))
		}
	}
	if _, err := fmt.Fprintln(w, "kind,name,field,value"); err != nil {
		return err
	}
	_, err := fmt.Fprint(w, strings.Join(rows, "\n"))
	if len(rows) > 0 && err == nil {
		_, err = fmt.Fprintln(w)
	}
	return err
}
