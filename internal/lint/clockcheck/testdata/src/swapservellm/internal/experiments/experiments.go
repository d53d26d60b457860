// Package experiments is clockcheck testdata for the virtual-only rule
// (import-path suffix internal/experiments): constructing a scaled
// clock is forbidden, the Virtual clock is not.
package experiments

import (
	"time"

	"swapservellm/internal/simclock"
)

var epoch = time.Time{}

func bad() {
	_ = simclock.NewScaled(epoch, 4000) // want `scaled clock simclock\.NewScaled in virtual-only package`
}

func good() {
	clock := simclock.NewVirtual(epoch)
	_ = clock.Now()
	// Wall-clock calls are allowed here: experiments is not in the
	// deterministic set (its tests bound themselves with wall timeouts),
	// only scaled-clock construction is banned.
	_ = time.Now()
}

func ignored() {
	//swaplint:ignore clockcheck calibration harness compares virtual against scaled timings
	_ = simclock.NewScaled(epoch, 100)
}
