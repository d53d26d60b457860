package lint_test

import (
	"strings"
	"testing"

	"swapservellm/internal/lint/clockcheck"
	"swapservellm/internal/lint/linttest"
)

// A directive no analyzer reads is a finding, so a dropped analyzer
// cannot leave its annotations behind unseen.
func TestStaleDirectives(t *testing.T) {
	diags := linttest.Diagnostics(t, "testdata", clockcheck.New(), "example.com/stale")
	want := []string{
		`unknown directive`,
		`names "errwrap", which is no analyzer of this suite`,
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		if d.Analyzer != "swaplint" || !strings.Contains(d.Message, want[i]) {
			t.Errorf("finding %d = %s, want a [swaplint] finding containing %q", i, d, want[i])
		}
	}
}
