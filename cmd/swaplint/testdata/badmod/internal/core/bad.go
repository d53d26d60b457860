// Package core is the swaplint smoke-test fixture: one seeded
// violation per analyzer, in a package path that matches the
// deterministic set.
package core

import (
	"time"

	"example.com/badmod/internal/chaos"
)

// Stamp trips clockcheck.
func Stamp() int64 { return time.Now().UnixNano() }

// Fire trips sitecheck: a literal where a declared constant exists.
func Fire() chaos.Site {
	_ = chaos.SiteGood
	return chaos.Site("core.good")
}
