package gatecheck

import (
	"testing"

	"swapservellm/internal/lint/linttest"
)

func TestGatecheck(t *testing.T) {
	linttest.Run(t, "testdata", New(), "example.com/gates", "example.com/internal/joins")
}
