package gatecheck

import (
	"strings"
	"testing"

	"swapservellm/internal/lint/linttest"
)

func TestGatecheck(t *testing.T) {
	linttest.Run(t, "testdata", New(), "example.com/gates", "example.com/internal/joins")
}

func TestBlockRule(t *testing.T) {
	linttest.Run(t, "testdata", New(), "example.com/blocks")
}

// A //swaplint:block directive without reason= is itself a finding and
// does not suppress the blocking diagnostic.
func TestMalformedBlockAnnotation(t *testing.T) {
	diags := linttest.Diagnostics(t, "testdata", New(), "example.com/blockmal")
	var malformed, blocking bool
	for _, d := range diags {
		if strings.Contains(d.Message, "malformed directive") && strings.Contains(d.Message, "swaplint:block reason=") {
			malformed = true
		}
		if strings.Contains(d.Message, "channel send while holding") {
			blocking = true
		}
	}
	if !malformed {
		t.Errorf("no malformed-directive finding in %v", diags)
	}
	if !blocking {
		t.Errorf("malformed annotation must not suppress the blocking finding; got %v", diags)
	}
}
