package cluster

import (
	"context"
	"time"

	"swapservellm/internal/core"
	"swapservellm/internal/obs"
)

// rebalancer is the cluster's background snapshot-placement optimizer.
// Each sweep finds nodes whose host snapshot RAM is above the
// high-water fraction of the cap ("hot") and moves their coldest idle
// image's RAM residency to an idle replica node: the replica promotes
// its disk copy into RAM (paying the disk read through the storage
// cost model) and the hot node demotes its copy to disk (paying the
// write). The next request for that model then finds a RAM-resident
// snapshot on the idle node — a fast hot-swap resume instead of a disk
// restore — while the hot node regains headroom for the models it is
// actually serving.
type rebalancer struct {
	c         *Cluster
	interval  time.Duration
	highWater float64
	capBytes  int64

	// testHookBeforeCommit, when set, runs after a (hot, dst) pair is
	// selected but before the Promote/Demote commit — a seam for tests
	// that race a node-state change against the migration.
	testHookBeforeCommit func(dst *Node)
}

// nodeSnap is one node's membership view captured at the start of a
// sweep. All placement decisions in the sweep read this snapshot, not
// the live registry, so a node flapping mid-sweep cannot make the
// rebalancer reason from two inconsistent views; the commit itself
// re-validates against live state.
type nodeSnap struct {
	node     *Node
	state    NodeState
	hostUsed int64
}

func newRebalancer(c *Cluster, interval time.Duration, highWater float64, capBytes int64) *rebalancer {
	return &rebalancer{
		c:         c,
		interval:  interval,
		highWater: highWater,
		capBytes:  capBytes,
	}
}

// Sweep performs one rebalancing pass, returning how many migrations
// it executed. Exported for tests and the swapgateway admin surface.
//
// The pass reads one consistent membership snapshot taken up front.
// Without it, a node marked down by the heartbeat loop between the
// hot-node scan and the destination scan could be selected as a
// migration target (or a freshly-rejoined node double-counted),
// because each check would observe a different registry state. The
// snapshot makes every decision in the sweep agree on who was healthy
// when the sweep began; the Promote/Demote commit then re-validates
// both ends against live state and aborts if either has since left
// healthy.
func (rb *rebalancer) Sweep(ctx context.Context) int {
	rb.c.reg.Counter("rebalance_sweeps").Inc()
	if rb.capBytes <= 0 {
		return 0
	}
	ctx = rb.c.traceCtx(ctx)
	ctx, span := obs.Start(ctx, "rebalance.sweep")
	defer span.End()
	snaps := make([]nodeSnap, 0)
	for _, n := range rb.c.registry.Nodes() {
		snaps = append(snaps, nodeSnap{
			node:     n,
			state:    n.State(),
			hostUsed: n.Server().Driver().HostUsed(),
		})
	}
	hi := int64(rb.highWater * float64(rb.capBytes))
	var migrated int
	for _, hot := range snaps {
		if hot.state != NodeHealthy {
			continue
		}
		if hot.hostUsed <= hi {
			continue
		}
		if rb.migrateFrom(ctx, hot.node, snaps, hi) {
			migrated++
		}
	}
	if migrated > 0 {
		rb.c.reg.Counter("rebalance_migrations").Add(float64(migrated))
	}
	span.SetAttr(obs.Int("migrated", migrated))
	return migrated
}

// migrateFrom moves one image's RAM residency off the hot node. It
// walks the node's swapped-out, RAM-resident, idle backends from
// coldest to warmest and takes the first with a willing destination.
func (rb *rebalancer) migrateFrom(ctx context.Context, hot *Node, snaps []nodeSnap, hi int64) bool {
	for _, b := range coldestFirst(hot.Server()) {
		dst, ok := rb.destinationFor(hot, snaps, b, hi)
		if !ok {
			continue
		}
		db, _ := dst.Server().Backend(b.Name())
		if rb.testHookBeforeCommit != nil {
			rb.testHookBeforeCommit(dst)
		}
		// Commit-time re-validation: the snapshot the selection used may
		// be stale by now — a heartbeat sweep or a proxy failure report
		// can mark either end down between selection and commit. Moving
		// the only RAM-resident copy onto a dead node (or stripping a
		// down node's copy) would strand the image, so abort instead.
		if hot.State() != NodeHealthy || dst.State() != NodeHealthy {
			rb.c.reg.Counter("rebalance_aborted_stale").Inc()
			continue
		}
		// With a content-addressed store on the destination, the migration
		// moves chunk references, not the whole image: only the bytes not
		// already host-resident there (chunks shared with a hot replica of
		// the same model cost nothing). Record what dedup saves.
		var dedupSaved int64
		dstPid := db.Container().ID()
		if st := dst.Server().CkptStore(); st != nil {
			if bytes, err := dst.Server().Driver().ImageBytes(dstPid); err == nil {
				if _, known := st.Resident(dstPid); known {
					dedupSaved = bytes - st.MissingHostBytes(dstPid)
				}
			}
		}
		// Promote the replica first: if it fails (raced past the headroom
		// check), the hot node keeps its RAM copy and nothing is lost.
		if err := dst.Server().Driver().Promote(ctx, dstPid); err != nil {
			continue
		}
		if err := hot.Server().Driver().Demote(ctx, b.Container().ID()); err != nil {
			continue
		}
		obs.AddEvent(ctx, "migrate",
			obs.String("model", b.Name()),
			obs.String("from", hot.ID()), obs.String("to", dst.ID()))
		if dedupSaved > 0 {
			rb.c.reg.Counter("rebalance_dedup_saved_bytes").Add(float64(dedupSaved))
		}
		rb.c.reg.Counter("rebalance_promotions_" + dst.ID()).Inc()
		rb.c.reg.Counter("rebalance_demotions_" + hot.ID()).Inc()
		return true
	}
	return false
}

// destinationFor finds a replica node — healthy in the sweep snapshot —
// whose copy of b's model is a disk-resident snapshot and which has RAM
// headroom to promote it without crossing the high-water mark itself.
func (rb *rebalancer) destinationFor(hot *Node, snaps []nodeSnap, b *core.Backend, hi int64) (*Node, bool) {
	for _, snap := range snaps {
		n := snap.node
		if n.ID() == hot.ID() || snap.state != NodeHealthy {
			continue
		}
		rb2, ok := n.Server().Backend(b.Name())
		if !ok || rb2.State() != core.BackendSwappedOut {
			continue
		}
		drv := n.Server().Driver()
		loc, err := drv.ImageLocation(rb2.Container().ID())
		if err != nil || loc.String() != "disk" {
			continue
		}
		bytes, err := drv.ImageBytes(rb2.Container().ID())
		if err != nil || snap.hostUsed+bytes > hi {
			continue
		}
		return n, true
	}
	return nil, false
}

// coldestFirst lists the node's migration candidates — swapped-out,
// RAM-resident images belonging to idle backends — least recently
// accessed first.
func coldestFirst(srv *core.Server) []*core.Backend {
	var out []*core.Backend
	for _, b := range srv.Backends() {
		if b.State() != core.BackendSwappedOut {
			continue
		}
		if b.QueueLen() > 0 || b.Pending() > 0 || b.Active() > 0 {
			continue
		}
		loc, err := srv.Driver().ImageLocation(b.Container().ID())
		if err != nil || loc.String() != "ram" {
			continue
		}
		out = append(out, b)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].LastAccessed().Before(out[j-1].LastAccessed()); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
