package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Value = %v", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value = %v, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("Value = %v", got)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 || h.Stddev() != 0 {
		t.Fatal("empty histogram stats not zero")
	}
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second} {
		h.Observe(d)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 2500*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != time.Second || h.Max() != 4*time.Second {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q != 2*time.Second {
		t.Fatalf("p50 = %v", q)
	}
	if sd := h.Stddev(); sd < time.Second || sd > 2*time.Second {
		t.Fatalf("Stddev = %v (want ~1.29s)", sd)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(time.Duration(v) * time.Millisecond)
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		va, vb := h.Quantile(a), h.Quantile(b)
		return va <= vb && va >= h.Min() && vb <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	t0 := time.Unix(100, 0)
	s.Append(t0, 1)
	s.Append(t0.Add(time.Hour), 2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	pts := s.Points()
	if pts[0].V != 1 || pts[1].V != 2 || !pts[1].T.Equal(t0.Add(time.Hour)) {
		t.Fatalf("points = %+v", pts)
	}
	// Points returns a copy.
	pts[0].V = 99
	if s.Points()[0].V != 1 {
		t.Fatal("Points aliased internal storage")
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not stable")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("Gauge not stable")
	}
	if r.Histogram("z") != r.Histogram("z") {
		t.Fatal("Histogram not stable")
	}
	if r.Series("s") != r.Series("s") {
		t.Fatal("Series not stable")
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(5)
	r.Gauge("mem").Set(1.5)
	r.Histogram("lat").Observe(2 * time.Second)
	r.Series("util").Append(time.Unix(1000, 0), 0.5)

	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"kind,name,field,value",
		"counter,reqs,value,5",
		"gauge,mem,value,1.5",
		"histogram,lat,count,1",
		"histogram,lat,mean_s,2.000000",
		"series,util,1000,0.500000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var sb strings.Builder
	if err := NewRegistry().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "kind,name,field,value") {
		t.Fatalf("empty CSV = %q", sb.String())
	}
}

// TestCounterGaugeConcurrent drives one counter and one gauge from
// several goroutines at once: the lock-free counter loses no increment,
// and the gauge holds one of the values stored.
func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	const workers, adds = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.Inc()
				c.Add(0.5)
				g.Set(float64(w))
				_ = g.Value()
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Value(), 1.5*workers*adds; got != want {
		t.Errorf("counter = %v, want %v", got, want)
	}
	if v := g.Value(); v < 0 || v >= workers || v != float64(int(v)) {
		t.Errorf("gauge = %v, not a value any worker stored", v)
	}
}
