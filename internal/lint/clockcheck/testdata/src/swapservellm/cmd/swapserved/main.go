// Package main is clockcheck testdata for a daemon: its clients are
// other processes, so it may run on a scaled clock.
package main

import (
	"time"

	"swapservellm/internal/simclock"
)

func main() {
	_ = simclock.NewScaled(time.Now(), 200)
}
