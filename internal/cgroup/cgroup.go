// Package cgroup simulates the Linux cgroup freezer subsystem that
// SwapServeLLM uses (via the container runtime's pause/unpause) to suspend
// CPU execution of inference engines during swap-out. It models the v1
// freezer semantics referenced by the paper: per-cgroup FROZEN/THAWED
// self-state, with the effective state inherited from frozen ancestors.
package cgroup

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"swapservellm/internal/chaos"
	"swapservellm/internal/obs"
)

// SelfState is a cgroup's own freezer state (what is written to
// freezer.state).
type SelfState int

// Self states.
const (
	Thawed SelfState = iota
	Frozen
)

// String returns the kernel-style uppercase state name.
func (s SelfState) String() string {
	if s == Frozen {
		return "FROZEN"
	}
	return "THAWED"
}

// Freezer is a simulated freezer hierarchy rooted at "/". It is safe for
// concurrent use.
type Freezer struct {
	mu sync.RWMutex
	// groups mutates only through the lifecycle entry points that
	// validate the hierarchy (parent exists, no orphaned children).
	groups   map[string]SelfState
	chaosInj *chaos.Injector
}

// SetChaos installs (or, with nil, removes) the fault injector. Freeze
// and Thaw consult chaos.SiteCgroupFreeze / chaos.SiteCgroupThaw before
// writing the state — a fired fault models the kernel freezer write
// failing (e.g. FREEZING stuck on an uninterruptible task) and leaves
// the cgroup in its previous state.
func (f *Freezer) SetChaos(in *chaos.Injector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.chaosInj = in
}

// NewFreezer returns a hierarchy containing only the root cgroup "/".
func NewFreezer() *Freezer {
	return &Freezer{groups: map[string]SelfState{"/": Thawed}}
}

// normalize canonicalizes a cgroup path: must start with "/", no trailing
// slash (except root).
func normalize(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("cgroup: path %q must be absolute", path)
	}
	if path != "/" {
		path = strings.TrimRight(path, "/")
	}
	if strings.Contains(path, "//") {
		return "", fmt.Errorf("cgroup: path %q contains empty segment", path)
	}
	return path, nil
}

// parentOf returns the parent path of a non-root normalized path.
func parentOf(path string) string {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// Create adds a cgroup at path. The parent must already exist.
func (f *Freezer) Create(path string) error {
	p, err := normalize(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.groups[p]; dup {
		return fmt.Errorf("%w: %s", ErrExists, p)
	}
	if _, ok := f.groups[parentOf(p)]; !ok {
		return fmt.Errorf("%w: %s", ErrParentMissing, parentOf(p))
	}
	f.groups[p] = Thawed
	return nil
}

// Remove deletes a cgroup; it must exist and have no children. The root
// cannot be removed.
func (f *Freezer) Remove(path string) error {
	p, err := normalize(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("cgroup: cannot remove root")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.groups[p]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	prefix := p + "/"
	for g := range f.groups {
		if strings.HasPrefix(g, prefix) {
			return fmt.Errorf("%w: %s", ErrHasChildren, p)
		}
	}
	delete(f.groups, p)
	return nil
}

// Freeze sets path's self-state to FROZEN. All tasks in the cgroup and its
// descendants stop being scheduled. ctx carries the active trace span.
func (f *Freezer) Freeze(ctx context.Context, path string) error {
	return f.setState(ctx, path, Frozen)
}

// Thaw sets path's self-state to THAWED. Descendants remain effectively
// frozen if any ancestor is still frozen. ctx carries the active trace
// span.
func (f *Freezer) Thaw(ctx context.Context, path string) error {
	return f.setState(ctx, path, Thawed)
}

func (f *Freezer) setState(ctx context.Context, path string, s SelfState) (err error) {
	name := "cgroup.freeze"
	if s == Thawed {
		name = "cgroup.thaw"
	}
	ctx, span := obs.Start(ctx, name, obs.String("path", path))
	defer func() { span.EndErr(err) }()
	p, err := normalize(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.groups[p]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	site := chaos.SiteCgroupFreeze
	if s == Thawed {
		site = chaos.SiteCgroupThaw
	}
	if ferr := f.chaosInj.AtFor(site, p).Err; ferr != nil {
		obs.AnnotateFault(ctx, string(site), ferr)
		return fmt.Errorf("cgroup: writing %v to %s: %w", s, p, ferr)
	}
	f.groups[p] = s
	return nil
}

// SelfState returns path's own freezer state.
func (f *Freezer) SelfState(path string) (SelfState, error) {
	p, err := normalize(path)
	if err != nil {
		return Thawed, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.groups[p]
	if !ok {
		return Thawed, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return s, nil
}

// EffectivelyFrozen reports whether path or any of its ancestors is
// frozen — the condition under which the kernel stops scheduling the
// cgroup's tasks.
func (f *Freezer) EffectivelyFrozen(path string) (bool, error) {
	p, err := normalize(path)
	if err != nil {
		return false, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if _, ok := f.groups[p]; !ok {
		return false, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	for {
		if f.groups[p] == Frozen {
			return true, nil
		}
		if p == "/" {
			return false, nil
		}
		p = parentOf(p)
	}
}

// List returns all cgroup paths in sorted order.
func (f *Freezer) List() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.groups))
	for g := range f.groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}
