package lockcheck

import (
	"testing"

	"swapservellm/internal/lint/linttest"
)

func TestLockcheck(t *testing.T) {
	linttest.Run(t, "testdata", New(), "example.com/locks", "example.com/internal/simclock")
}
