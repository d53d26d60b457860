package simclock

import (
	"testing"
	"time"
)

var epoch = time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC)

func TestRealNow(t *testing.T) {
	c := Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v, want between %v and %v", got, before, after)
	}
}

func TestRealSleepNonPositive(t *testing.T) {
	c := Real{}
	start := time.Now()
	c.Sleep(-time.Hour)
	c.Sleep(0)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("non-positive Sleep blocked for %v", elapsed)
	}
}

func TestRealSince(t *testing.T) {
	c := Real{}
	t0 := c.Now()
	if d := c.Since(t0); d < 0 {
		t.Fatalf("Since returned negative duration %v", d)
	}
}

func TestScaledNowAdvances(t *testing.T) {
	c := NewScaled(epoch, DefaultScale)
	t0 := c.Now()
	time.Sleep(10 * time.Millisecond)
	t1 := c.Now()
	if !t1.After(t0) {
		t.Fatalf("scaled clock did not advance: %v -> %v", t0, t1)
	}
	// 10ms of wall time at 200x is 2s simulated; allow generous slack.
	if d := t1.Sub(t0); d < time.Second {
		t.Fatalf("scaled clock advanced only %v, want >= 1s", d)
	}
}

func TestScaledSleepCompresses(t *testing.T) {
	c := NewScaled(epoch, DefaultScale)
	start := time.Now()
	c.Sleep(10 * time.Second) // should cost ~1ms of wall time
	if wall := time.Since(start); wall > 500*time.Millisecond {
		t.Fatalf("Sleep(10s) at %vx took %v of wall time", DefaultScale, wall)
	}
}

func TestScaledSleepSimulatedDuration(t *testing.T) {
	c := NewScaled(epoch, DefaultScale)
	t0 := c.Now()
	c.Sleep(30 * time.Second)
	elapsed := c.Since(t0)
	if elapsed < 30*time.Second {
		t.Fatalf("simulated elapsed %v, want >= 30s", elapsed)
	}
	if elapsed > 5*time.Minute {
		t.Fatalf("simulated elapsed %v, want < 5m (scheduling slack)", elapsed)
	}
}

func TestScaledMinimumScale(t *testing.T) {
	c := NewScaled(epoch, 0.1)
	if c.Scale() != 1 {
		t.Fatalf("scale clamped to %v, want 1", c.Scale())
	}
}

func TestScaledAfterZero(t *testing.T) {
	c := NewScaled(epoch, DefaultScale)
	select {
	case <-c.After(0):
	case <-time.After(time.Second):
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestScaledAfterFires(t *testing.T) {
	c := NewScaled(epoch, DefaultScale)
	select {
	case ts := <-c.After(5 * time.Second):
		if ts.Before(epoch.Add(5 * time.Second)) {
			t.Fatalf("After fired at %v, before deadline", ts)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("After(5s simulated) did not fire within 2s wall")
	}
}
