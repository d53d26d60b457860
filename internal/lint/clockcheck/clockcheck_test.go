package clockcheck

import (
	"testing"

	"swapservellm/internal/lint/linttest"
)

func TestClockcheck(t *testing.T) {
	linttest.Run(t, "testdata", New(),
		"swapservellm/internal/core",
		"swapservellm/internal/experiments",
		"swapservellm/examples/quickstart",
		"swapservellm/cmd/swapserved",
		"example.com/free",
	)
}
