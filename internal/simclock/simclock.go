// Package simclock provides a pluggable clock abstraction that lets the
// SwapServeLLM simulation compress calibrated multi-second hardware
// latencies (model loads, CUDA-graph capture, PCIe transfers) into
// microseconds of wall time while reporting consistent simulated
// timestamps.
//
// Four implementations are provided:
//
//   - Real: the system clock, for live deployments of the framework.
//   - Scaled: simulated time runs Scale times faster than wall time; a
//     Sleep(87s) with Scale 10000 blocks for 8.7ms while Now() advances
//     by 87s. Concurrency interleavings remain realistic because all
//     goroutines share the same compression factor.
//   - Manual: a hand-advanced clock for deterministic unit tests.
//   - Virtual: a discrete-event clock that jumps straight to the next
//     deadline whenever the system is quiescent (see Gate), with an
//     in-process HTTP transport (see Listen). The experiment harness
//     runs on it: zero wall waiting and byte-identical artifacts.
package simclock

import (
	"runtime"
	"time"
)

// Clock is the time source used by every latency-inducing operation in the
// simulation. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time in the clock's (possibly simulated)
	// timeline.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of simulated time.
	// Non-positive durations return immediately.
	Sleep(d time.Duration)
	// After returns a channel that receives the simulated time after d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// Since returns the simulated time elapsed since t.
	Since(t time.Time) time.Duration
}

// Real is a Clock backed directly by the operating system clock.
type Real struct{}

// NewReal returns a Clock that uses the wall clock without scaling.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Scaled is a Clock whose timeline advances Scale times faster than wall
// time. The zero value is not usable; construct with NewScaled.
type Scaled struct {
	origin time.Time // simulated time at start
	start  time.Time // wall time at start
	scale  float64
}

// DefaultScale is the compression factor used by tests and benchmarks:
// one simulated second costs 5ms of wall time. The scale trades wall time
// for accuracy — unscaled wall-clock overhead (scheduling, HTTP handling)
// is magnified by the scale factor when observed in simulated time, so
// experiments that measure end-to-end latency keep the factor moderate.
const DefaultScale = 200

// spinThreshold is the wall duration below which Sleep busy-waits instead
// of calling time.Sleep: the kernel timer granularity makes short sleeps
// overshoot by up to ~1ms, which the scale factor would magnify into
// seconds of simulated error.
const spinThreshold = 1500 * time.Microsecond

// NewScaled returns a Clock whose simulated timeline starts at origin and
// advances scale times faster than wall time. scale must be >= 1.
func NewScaled(origin time.Time, scale float64) *Scaled {
	if scale < 1 {
		scale = 1
	}
	return &Scaled{origin: origin, start: time.Now(), scale: scale}
}

// Now implements Clock: origin plus the scaled wall-clock elapsed time.
func (c *Scaled) Now() time.Time {
	elapsed := time.Since(c.start)
	return c.origin.Add(time.Duration(float64(elapsed) * c.scale))
}

// Sleep implements Clock: blocks for d/Scale of wall time. The final
// stretch is spun rather than slept so that timer-granularity overshoot
// (which the scale factor would magnify) does not distort simulated
// latencies.
func (c *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	wall := time.Duration(float64(d) / c.scale)
	deadline := time.Now().Add(wall)
	if wall > spinThreshold {
		time.Sleep(wall - spinThreshold)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// After implements Clock. Unlike Sleep, After uses coarse (non-spinning)
// timers: it serves periodic background loops (reapers, prefetchers,
// backoffs) where sub-millisecond precision is irrelevant but burning a
// CPU on a spin wait would starve the simulation on small machines.
func (c *Scaled) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.Now()
		return ch
	}
	wall := time.Duration(float64(d) / c.scale)
	// time.AfterFunc instead of a goroutine per call: an abandoned After
	// (a reaper tick dropped at shutdown) leaves only a runtime timer
	// that fires into a buffered channel, not a parked goroutine.
	time.AfterFunc(wall, func() { ch <- c.Now() })
	return ch
}

// Since implements Clock.
func (c *Scaled) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Scale reports the compression factor.
func (c *Scaled) Scale() float64 { return c.scale }
