package simclock

import "time"

// parkedOn reports how many goroutines are parked in BlockOn on key.
func (v *Virtual) parkedOn(key any) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, r := range v.parked {
		if r.key == key {
			n++
		}
	}
	return n
}

// settleCount reports how many settle passes the clock has run.
func (v *Virtual) settleCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.settles
}

// waiterCount reports how many timers are pending.
func (v *Virtual) waiterCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.waiters.Len()
}

// awaitParked parks the calling registered goroutine until one goroutine
// is parked in BlockOn on key. Its ready check runs under v.mu, as every
// ready check does, so it reads v.parked directly.
func awaitParked(v *Virtual, key any) {
	parkedHeld := func() int {
		n := 0
		for _, r := range v.parked {
			if r.key == key {
				n++
			}
		}
		return n
	}
	v.gate.BlockOn(&v.parked, func() bool { return parkedHeld() == 1 }, func() {
		for v.parkedOn(key) != 1 {
			time.Sleep(100 * time.Microsecond)
		}
	})
}

// napCount reports how many wall naps settle passes have taken.
func (v *Virtual) napCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.naps
}

// paidNapCount reports how many settle naps a payment ended before
// their timer.
func (v *Virtual) paidNapCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.paidNaps
}

// owedCount reports how many BlockIO requests and replies the clock
// still owes.
func (v *Virtual) owedCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.owed
}
