// Package joins is gatecheck testdata: internal code outside tests
// waits through waits the clock can probe, never a plain Gate.Block or
// Gate.BlockIO.
package joins

import (
	"sync"

	"swapservellm/internal/simclock"
)

func join(g *simclock.Gate, wg *sync.WaitGroup) {
	g.Block(wg.Wait) // want `plain Gate\.Block in internal code`
}

func socket(g *simclock.Gate, done chan struct{}) {
	g.BlockIO(func() { <-done }) // want `plain Gate\.BlockIO in internal code`
}

// A BlockOn with an exact ready check is the sanctioned form.
func probed(g *simclock.Gate, done chan struct{}) {
	g.BlockOn(done, func() bool { return simclock.Closed(done) }, func() { <-done })
}
