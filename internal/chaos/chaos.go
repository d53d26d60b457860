// Package chaos is the deterministic fault-schedule engine for the
// SwapServeLLM test harness. A Plan — a seed plus per-site rules —
// drives an Injector that every swappable layer consults at its
// injectable fault points (the checkpoint driver's lock / checkpoint /
// restore / unlock transitions and PCIe transfers, the cgroup freezer,
// the model store, and the cluster's heartbeat / proxy / SSE paths).
//
// Decisions are a pure function of (seed, site, subject, occurrence
// index), so a failing schedule replays exactly from its seed regardless
// of how goroutines interleave: the n-th checkpoint of a process at a
// site fails (or stalls) on every run with that seed, whichever other
// process reached the site first. This replaces the ad-hoc one-shot
// InjectFault mechanism that previously lived in internal/cudackpt.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Site identifies one injectable fault point in the system.
type Site string

// Injectable fault sites, one per swappable layer operation.
const (
	// SiteCkptLock / SiteCkptCheckpoint / SiteCkptRestore /
	// SiteCkptUnlock fail the corresponding cuda-checkpoint driver
	// transition before any state changes.
	SiteCkptLock       Site = "cudackpt.lock"
	SiteCkptCheckpoint Site = "cudackpt.checkpoint"
	SiteCkptRestore    Site = "cudackpt.restore"
	SiteCkptUnlock     Site = "cudackpt.unlock"
	// SiteCkptPCIe is latency-only: it stretches a checkpoint or restore
	// transfer, modelling a congested or degraded PCIe link.
	SiteCkptPCIe Site = "cudackpt.pcie"
	// SiteCkptChunk fails one chunk of a chunked checkpoint or restore
	// transfer mid-pipeline. The driver retries the chunk a bounded
	// number of times before aborting and rolling the transfer back.
	SiteCkptChunk Site = "cudackpt.chunk"
	// SiteCgroupFreeze / SiteCgroupThaw fail the freezer state write.
	SiteCgroupFreeze Site = "cgroup.freeze"
	SiteCgroupThaw   Site = "cgroup.thaw"
	// SiteStorageRead fails a model-store blob read; SiteStorageWrite
	// tears a blob write, leaving an unreadable partial blob behind.
	SiteStorageRead  Site = "storage.read"
	SiteStorageWrite Site = "storage.write"
	// SiteHeartbeat makes a registry health probe report the node dead;
	// a burst of missLimit firings simulates a node crash, and the
	// probes succeeding again afterwards simulates its restart.
	SiteHeartbeat Site = "cluster.heartbeat"
	// SiteProxy fails a gateway→node forward before it is attempted,
	// modelling a proxy-level connection timeout.
	SiteProxy Site = "cluster.proxy"
	// SiteSSE cuts a relayed SSE stream between events, modelling a
	// node dying (or its connection dropping) mid-stream.
	SiteSSE Site = "cluster.sse"
	// SiteSchedAdmit flips a gateway admission decision: an admit
	// becomes a shed and a shed becomes an admit, modelling a
	// mis-estimated queue delay.
	SiteSchedAdmit Site = "sched.admit"
	// SiteSchedPrefetch suppresses a predictive pre-warm the demand
	// predictor asked for, modelling a misprediction ahead of a ramp
	// (the prefetch is skipped; the ramp then pays the cold swap).
	SiteSchedPrefetch Site = "sched.prefetch"
	// SiteSchedEvict inverts a keep-alive/TTL eviction decision in the
	// reaper: a keep becomes an evict (premature reclaim) and an evict
	// becomes a keep (leaked residency), modelling a mispredicted TTL.
	SiteSchedEvict Site = "sched.evict"
	// SiteCkptFetch fails one chunk fetch in the checkpoint store's
	// restore path (a torn disk read or a dropped peer connection). The
	// store retries a bounded number of times, then falls back to the
	// next-best restore source for that chunk.
	SiteCkptFetch Site = "ckptstore.fetch"
	// SiteCkptPromote fails one chunk fetch during a tier promotion
	// (disk→RAM or peer→RAM), with the same bounded-retry fallback to
	// the next-best source.
	SiteCkptPromote Site = "ckptstore.promote"
	// SiteProxyTranslate fails the front door's protocol translation
	// (client wire → IR) for one request, modelling a codec bug or a
	// payload the translator cannot round-trip; the gateway answers with
	// a well-formed protocol error instead of forwarding garbage.
	SiteProxyTranslate Site = "proxy.translate"
	// SiteProxyCache degrades one response-cache lookup: the request
	// bypasses the cache (counted as a bypass, never a wrong answer) as
	// if the cache shard were briefly unavailable.
	SiteProxyCache Site = "proxy.cache"
)

// Sites lists every built-in site in sorted order.
func Sites() []Site {
	out := []Site{
		SiteCkptLock, SiteCkptCheckpoint, SiteCkptRestore, SiteCkptUnlock,
		SiteCkptPCIe, SiteCkptChunk, SiteCgroupFreeze, SiteCgroupThaw,
		SiteStorageRead, SiteStorageWrite,
		SiteHeartbeat, SiteProxy, SiteSSE,
		SiteSchedAdmit, SiteSchedPrefetch, SiteSchedEvict,
		SiteCkptFetch, SiteCkptPromote,
		SiteProxyTranslate, SiteProxyCache,
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ErrInjected marks failures produced by chaos injection. Layers wrap
// it with the site name; recovery paths must treat it like any other
// transient substrate failure.
var ErrInjected = errors.New("chaos: injected fault")

// Outcome is the injector's decision for one occurrence at a site.
// The zero Outcome means "proceed normally".
type Outcome struct {
	// Err is non-nil when the operation must fail.
	Err error
	// Delay is extra simulated latency to charge (latency faults).
	Delay time.Duration
}

// ruleState tracks one rule's firing progress.
type ruleState struct {
	rule  Rule
	fired int
}

// SiteStats reports injection activity at one site.
type SiteStats struct {
	// Occurrences counts how many times the site was consulted.
	Occurrences int
	// Fired counts how many consultations produced a fault.
	Fired int
}

// Injector evaluates a Plan at runtime. All methods are safe for
// concurrent use, and a nil *Injector is a valid no-op injector, so
// components can hold one unconditionally.
type Injector struct {
	seed int64

	mu    sync.Mutex
	rules map[Site][]*ruleState
	seen  map[Site]int
	fired map[Site]int
	// subjectSeen counts occurrences per (site, subject) for AtFor.
	subjectSeen map[subjectKey]int
}

// subjectKey names one subject's occurrence sequence at a site.
type subjectKey struct {
	site    Site
	subject string
}

// NewInjector builds an injector executing plan.
func NewInjector(plan Plan) *Injector {
	in := &Injector{
		seed:  plan.Seed,
		rules: make(map[Site][]*ruleState),
		seen:  make(map[Site]int),
		fired: make(map[Site]int),

		subjectSeen: make(map[subjectKey]int),
	}
	for _, r := range plan.Rules {
		in.rules[r.Site] = append(in.rules[r.Site], &ruleState{rule: r})
	}
	return in
}

// FailNext returns an injector that fails the next n occurrences at
// site — the one-shot idiom the legacy InjectFault API provided.
func FailNext(site Site, n int) *Injector {
	return NewInjector(Plan{Seed: 1, Rules: []Rule{{Site: site, P: 1, Times: n}}})
}

// At records one occurrence at site and returns the injection decision.
// With multiple rules for a site the first that fires wins; error rules
// and delay rules may both be armed on one site. The draw is keyed by
// the site's occurrence index, so it is only replay-stable where the
// site's callers are ordered among themselves; AtFor keys it by subject
// instead.
func (in *Injector) At(site Site) Outcome {
	return in.AtFor(site, "")
}

// AtFor is At for an occurrence that belongs to subject — a process, a
// cgroup, a blob. Its probability draw is keyed by (site, subject, the
// subject's own occurrence index), so it does not depend on how
// concurrent subjects interleave at the site: two processes whose
// transfers step at the same simulated instants draw the same faults
// whichever the host scheduler runs first. A rule's after= and times=
// still count occurrences and firings across the whole site, as
// documented on Rule. An injected error names the occurrence index the
// draw used. An empty subject is exactly At.
func (in *Injector) AtFor(site Site, subject string) Outcome {
	if in == nil {
		return Outcome{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	occ := in.seen[site]
	in.seen[site] = occ + 1
	drawOcc := occ
	if subject != "" {
		k := subjectKey{site, subject}
		drawOcc = in.subjectSeen[k]
		in.subjectSeen[k] = drawOcc + 1
	}
	for idx, rs := range in.rules[site] {
		r := rs.rule
		if occ < r.After {
			continue
		}
		if r.Times > 0 && rs.fired >= r.Times {
			continue
		}
		if p := r.probability(); p < 1 && in.draw(site, subject, idx, drawOcc) >= p {
			continue
		}
		rs.fired++
		in.fired[site]++
		if r.Delay > 0 {
			return Outcome{Delay: r.Delay}
		}
		return Outcome{Err: fmt.Errorf("%w: %s (occurrence %d)", ErrInjected, site, drawOcc)}
	}
	return Outcome{}
}

// Stats returns per-site consultation and firing counts for every site
// that has been consulted at least once.
func (in *Injector) Stats() map[Site]SiteStats {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Site]SiteStats, len(in.seen))
	for s, n := range in.seen {
		out[s] = SiteStats{Occurrences: n, Fired: in.fired[s]}
	}
	return out
}

// TotalFired returns the total number of faults injected so far.
func (in *Injector) TotalFired() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var total int
	for _, n := range in.fired {
		total += n
	}
	return total
}

// Seed returns the plan seed the injector replays.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// draw produces a deterministic uniform value in [0,1) for the given
// (site, subject, rule, occurrence) coordinate under the injector's
// seed. An empty subject hashes exactly as the site alone.
func (in *Injector) draw(site Site, subject string, ruleIdx, occ int) float64 {
	h := fnv64a(fnvOffset64, string(site))
	if subject != "" {
		h = fnv64a(h, "\x00"+subject)
	}
	x := uint64(in.seed) ^ h ^ (uint64(ruleIdx+1) << 48) ^ uint64(occ)*0x9e3779b97f4a7c15
	// splitmix64 finalizer: decorrelates the coordinate bits.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// fnvOffset64 is the FNV-1a 64-bit offset basis.
const fnvOffset64 = 14695981039346656037

// fnv64a folds s into the FNV-1a 64-bit hash h.
func fnv64a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
