package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Rule schedules faults at one site.
type Rule struct {
	// Site is the fault point the rule arms.
	Site Site
	// P is the per-occurrence firing probability in [0,1]; zero means 1
	// (always fire) so one-shot rules read naturally.
	P float64
	// After skips the first After occurrences at the site, counted
	// across every subject, before the rule becomes eligible
	// (deterministic mid-stream cut points).
	After int
	// Times bounds the total number of firings at the site, across every
	// subject (0 = unlimited).
	Times int
	// Delay, when positive, turns the fault into a latency injection of
	// that much simulated time instead of an error.
	Delay time.Duration
}

// probability returns the effective firing probability.
func (r Rule) probability() float64 {
	if r.P == 0 {
		return 1
	}
	return r.P
}

// validate rejects out-of-range rule fields.
func (r Rule) validate() error {
	if r.Site == "" {
		return fmt.Errorf("chaos: rule missing site")
	}
	for _, c := range string(r.Site) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("chaos: invalid site %q", r.Site)
		}
	}
	if math.IsNaN(r.P) || r.P < 0 || r.P > 1 {
		return fmt.Errorf("chaos: rule %s: probability %v outside [0,1]", r.Site, r.P)
	}
	if r.After < 0 {
		return fmt.Errorf("chaos: rule %s: negative after %d", r.Site, r.After)
	}
	if r.Times < 0 {
		return fmt.Errorf("chaos: rule %s: negative times %d", r.Site, r.Times)
	}
	if r.Delay < 0 {
		return fmt.Errorf("chaos: rule %s: negative delay %v", r.Site, r.Delay)
	}
	return nil
}

// Plan is a complete reproducible fault schedule: the seed plus the
// per-site rules. The same plan always injects the same faults at the
// same per-site occurrence indices.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// Validate checks every rule.
func (p Plan) Validate() error {
	for _, r := range p.Rules {
		if err := r.validate(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the plan in the canonical text form accepted by
// ParsePlan: "seed=N; site: k=v ...; site: k=v ...". Rules keep their
// declaration order.
func (p Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d", p.Seed)
	for _, r := range p.Rules {
		sb.WriteString("; ")
		sb.WriteString(string(r.Site))
		sb.WriteString(":")
		if r.P != 0 {
			fmt.Fprintf(&sb, " p=%s", strconv.FormatFloat(r.P, 'g', -1, 64))
		}
		if r.After != 0 {
			fmt.Fprintf(&sb, " after=%d", r.After)
		}
		if r.Times != 0 {
			fmt.Fprintf(&sb, " times=%d", r.Times)
		}
		if r.Delay != 0 {
			fmt.Fprintf(&sb, " delay=%s", r.Delay)
		}
	}
	return sb.String()
}

// ParsePlan parses the compact plan text form: semicolon-separated
// clauses, the first optionally "seed=N", the rest "site: key=value
// ...", with keys p / after / times / delay and values separated by
// spaces or commas. Example:
//
//	seed=42; cudackpt.restore: p=0.2 times=3; cudackpt.pcie: delay=10ms p=0.5
func ParsePlan(text string) (Plan, error) {
	var plan Plan
	seenSeed := false
	for _, clause := range strings.Split(text, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if strings.HasPrefix(clause, "seed=") {
			if seenSeed || len(plan.Rules) > 0 {
				return Plan{}, fmt.Errorf("chaos: seed clause must come first, once")
			}
			seed, err := strconv.ParseInt(strings.TrimPrefix(clause, "seed="), 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("chaos: bad seed in %q: %w", clause, err)
			}
			plan.Seed = seed
			seenSeed = true
			continue
		}
		site, kvs, ok := strings.Cut(clause, ":")
		if !ok {
			return Plan{}, fmt.Errorf("chaos: clause %q is not 'site: k=v ...'", clause)
		}
		rule := Rule{Site: Site(strings.TrimSpace(site))}
		fields := strings.FieldsFunc(kvs, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
		for _, f := range fields {
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return Plan{}, fmt.Errorf("chaos: %s: %q is not key=value", rule.Site, f)
			}
			var err error
			switch key {
			case "p":
				rule.P, err = strconv.ParseFloat(val, 64)
			case "after":
				rule.After, err = strconv.Atoi(val)
			case "times":
				rule.Times, err = strconv.Atoi(val)
			case "delay":
				rule.Delay, err = time.ParseDuration(val)
			default:
				return Plan{}, fmt.Errorf("chaos: %s: unknown key %q", rule.Site, key)
			}
			if err != nil {
				return Plan{}, fmt.Errorf("chaos: %s: bad %s value %q: %w", rule.Site, key, val, err)
			}
		}
		if err := rule.validate(); err != nil {
			return Plan{}, err
		}
		plan.Rules = append(plan.Rules, rule)
	}
	return plan, nil
}

// MustParsePlan is ParsePlan for compile-time-constant plans in tests
// and experiments; it panics on error.
func MustParsePlan(text string) Plan {
	p, err := ParsePlan(text)
	if err != nil {
		panic(err)
	}
	return p
}

// WithSeed returns a copy of the plan with the seed replaced — the
// replay-by-seed workflow: keep the rules, sweep the seed.
func (p Plan) WithSeed(seed int64) Plan {
	out := Plan{Seed: seed, Rules: make([]Rule, len(p.Rules))}
	copy(out.Rules, p.Rules)
	return out
}

// sortedSiteNames is a helper for deterministic reporting.
func sortedSiteNames(m map[Site]SiteStats) []Site {
	out := make([]Site, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FormatStats renders injector stats as "site=fired/occurrences ..."
// in sorted site order (for logs and experiment rows).
func FormatStats(m map[Site]SiteStats) string {
	var sb strings.Builder
	for i, s := range sortedSiteNames(m) {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%d/%d", s, m[s].Fired, m[s].Occurrences)
	}
	return sb.String()
}
