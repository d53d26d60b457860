package cluster

import (
	"context"
	"testing"
	"time"

	"swapservellm/internal/config"
)

// TestRebalancerMigratesColdSnapshot: a node whose snapshot RAM sits
// above the high-water mark sheds its coldest idle image to a replica
// node with headroom — the replica promotes its disk copy into RAM and
// the hot node demotes its copy to disk, both through the storage cost
// model.
func TestRebalancerMigratesColdSnapshot(t *testing.T) {
	cfg := config.DefaultCluster()
	cfg.Cluster.HeartbeatSec = 3600
	cfg.Nodes = []config.Node{
		// node-a holds two snapshots (hot); node-b replicates only the
		// first model and starts with its copy demoted to disk.
		{Name: "node-a", Models: []config.Model{
			{Name: "llama3.2:1b-fp16", Engine: "ollama"},
			{Name: "llama3.2:3b-fp16", Engine: "ollama"},
		}},
		{Name: "node-b", Models: []config.Model{
			{Name: "llama3.2:1b-fp16", Engine: "ollama"},
		}},
	}
	c := startCluster(t, cfg)

	nodeA, _ := c.Node("node-a")
	nodeB, _ := c.Node("node-b")
	drvA, drvB := nodeA.Server().Driver(), nodeB.Server().Driver()
	bA1, _ := nodeA.Server().Backend("llama3.2:1b-fp16")
	bA3, _ := nodeA.Server().Backend("llama3.2:3b-fp16")
	bB1, _ := nodeB.Server().Backend("llama3.2:1b-fp16")

	// Init leaves every backend swapped out with a RAM image; push
	// node-b's replica to disk so it is a promotion candidate.
	if err := drvB.Demote(context.Background(), bB1.Container().ID()); err != nil {
		t.Fatal(err)
	}

	// Cap chosen so node-a (two images) is above 0.75×cap while node-b
	// (empty RAM) can absorb the 1b image without crossing it.
	capBytes := drvA.HostUsed()
	rb := newRebalancer(c, time.Second, 0.75, capBytes)

	if got := rb.Sweep(context.Background()); got != 1 {
		t.Fatalf("first sweep migrated %d images, want 1", got)
	}
	// The smaller/colder 1b image moved: node-a now disk, node-b now RAM.
	if loc, _ := drvA.ImageLocation(bA1.Container().ID()); loc.String() != "disk" {
		t.Fatalf("node-a 1b image = %v, want disk", loc)
	}
	if loc, _ := drvB.ImageLocation(bB1.Container().ID()); loc.String() != "ram" {
		t.Fatalf("node-b 1b image = %v, want ram", loc)
	}
	// The un-replicated 3b image must not move.
	if loc, _ := drvA.ImageLocation(bA3.Container().ID()); loc.String() != "ram" {
		t.Fatalf("node-a 3b image = %v, want ram", loc)
	}
	if got := c.Registry().Counter("rebalance_migrations").Value(); got != 1 {
		t.Fatalf("rebalance_migrations = %v", got)
	}

	// Node-a dropped below the high-water mark; a second sweep is a
	// no-op.
	if got := rb.Sweep(context.Background()); got != 0 {
		t.Fatalf("second sweep migrated %d images, want 0", got)
	}

	// Placement now sees the migrated snapshot: node-b is the RAM-class
	// candidate for the 1b model, node-a only disk-class.
	cands := c.NodeRegistry().Candidates("llama3.2:1b-fp16")
	if len(cands) != 2 {
		t.Fatalf("candidates = %+v", cands)
	}
	byID := map[string]Presence{}
	for _, cd := range cands {
		byID[cd.NodeID] = cd.Presence
	}
	if byID["node-a"] != PresenceDisk || byID["node-b"] != PresenceRAM {
		t.Fatalf("presence after migration = %v", byID)
	}
}

// TestRebalancerDisabledWithoutCap: with no host snapshot cap there is
// no RAM pressure signal, so sweeps do nothing.
func TestRebalancerDisabledWithoutCap(t *testing.T) {
	c := startCluster(t, twoNodeConfig("llama3.2:1b-fp16"))
	rb := newRebalancer(c, time.Second, 0.75, 0)
	if got := rb.Sweep(context.Background()); got != 0 {
		t.Fatalf("capless sweep migrated %d images", got)
	}
}

// TestRebalancerSkipsBusyBackends: images belonging to backends with
// outstanding work are not migration candidates.
func TestRebalancerNeedsReplicaOnDisk(t *testing.T) {
	// Replica image still in RAM on node-b: nothing to promote, so the
	// hot node keeps its image even above the high-water mark.
	c := startCluster(t, twoNodeConfig("llama3.2:1b-fp16"))
	nodeA, _ := c.Node("node-a")
	rb := newRebalancer(c, time.Second, 0.5, nodeA.Server().Driver().HostUsed())
	if got := rb.Sweep(context.Background()); got != 0 {
		t.Fatalf("sweep migrated %d images without a disk-resident replica", got)
	}
}
