package core

import (
	"time"

	"swapservellm/internal/simclock"
)

// A test file is exempt from the wall-clock rule, not from the
// scaled-clock rule.
func testClocks() {
	_ = time.Now()
	_ = simclock.NewScaled(time.Time{}, 200) // want `scaled clock simclock\.NewScaled in package core`
	_ = simclock.NewVirtual(time.Time{})
}
