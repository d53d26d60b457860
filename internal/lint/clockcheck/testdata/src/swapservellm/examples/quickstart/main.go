// Package main is clockcheck testdata for an example program: it runs
// on the Virtual clock, never a scaled one.
package main

import (
	"time"

	"swapservellm/internal/simclock"
)

func main() {
	_ = simclock.NewScaled(time.Now(), 1000) // want `scaled clock simclock\.NewScaled in package main`
	_ = simclock.NewVirtual(time.Time{})
}
