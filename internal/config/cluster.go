package config

import (
	"errors"
	"fmt"
	"io"
	"time"

	"swapservellm/internal/models"
)

// Node configures one cluster member: a full SwapServeLLM deployment
// (its own simulated GPU topology, engines, and snapshot store) joined
// to the gateway.
type Node struct {
	// Name is the node's cluster-unique identifier.
	Name string `json:"name"`
	// Listen is the node router's bind address (default "127.0.0.1:0").
	Listen string `json:"listen,omitempty"`
	// GPUCount overrides the node's topology size (default: the
	// testbed's count, grown to fit the highest configured GPU index).
	GPUCount int `json:"gpu_count,omitempty"`
	// Models lists the backends deployed on this node. A model may be
	// replicated across nodes; the placement engine then chooses per
	// request.
	Models []Model `json:"models"`
}

// ClusterGlobal holds gateway-level parameters.
type ClusterGlobal struct {
	// Placement selects the placement policy: "locality" (default),
	// "least-loaded", or "random".
	Placement string `json:"placement,omitempty"`
	// HeartbeatSec is the registry's heartbeat probe interval in
	// simulated seconds (default 2).
	HeartbeatSec float64 `json:"heartbeat_sec,omitempty"`
	// HeartbeatMissLimit marks a node down after this many consecutive
	// missed heartbeats (default 3).
	HeartbeatMissLimit int `json:"heartbeat_miss_limit,omitempty"`
	// RebalanceSec is the snapshot rebalancer's sweep interval in
	// simulated seconds (0 disables the rebalancer).
	RebalanceSec float64 `json:"rebalance_sec,omitempty"`
	// RebalanceHighWater is the host-snapshot RAM fraction above which a
	// node is considered hot (default 0.75; only meaningful with a
	// snapshot_host_cap_gib).
	RebalanceHighWater float64 `json:"rebalance_high_water,omitempty"`
	// RetryLimit bounds how many distinct nodes the gateway tries per
	// request before giving up (default 2, i.e. one failover).
	RetryLimit int `json:"retry_limit,omitempty"`
}

// ProxyCfg configures the gateway's multi-protocol front door: the
// IR-keyed response cache sitting in front of placement.
type ProxyCfg struct {
	// CacheDisabled turns the response cache off entirely.
	CacheDisabled bool `json:"cache_disabled,omitempty"`
}

// Cluster is the multi-node deployment configuration consumed by the
// swapgateway binary: one gateway address, shared global backend
// parameters, and the node list.
type Cluster struct {
	// Listen is the gateway's bind address.
	Listen string `json:"listen"`
	// Testbed selects the hardware profile for every node.
	Testbed string `json:"testbed"`
	// Global backend parameters apply to every node (same split as the
	// single-node Config).
	Global Global `json:"global"`
	// Cluster holds gateway-level parameters.
	Cluster ClusterGlobal `json:"cluster"`
	// Scheduling configures predictive SLO-aware scheduling and
	// admission control (empty = reactive fleet, as before).
	Scheduling SchedCfg `json:"scheduling,omitempty"`
	// Proxy configures the multi-protocol front door.
	Proxy ProxyCfg `json:"proxy,omitempty"`
	// Nodes lists the cluster members.
	Nodes []Node `json:"nodes"`
}

// DefaultCluster returns a cluster configuration with sensible defaults
// and no nodes. The cluster section's defaults are filled by Validate.
func DefaultCluster() Cluster {
	def := Default()
	return Cluster{
		Listen:  "127.0.0.1:0",
		Testbed: def.Testbed,
		Global:  def.Global,
	}
}

// ParseCluster decodes a JSON cluster configuration, applying defaults
// for omitted fields.
func ParseCluster(r io.Reader) (Cluster, error) { return decode(r, DefaultCluster()) }

// LoadCluster reads and parses a cluster configuration file.
func LoadCluster(path string) (Cluster, error) { return load(path, ParseCluster) }

// Validate checks the cluster configuration: gateway parameters, node
// uniqueness, and every node's deployment via the single-node rules.
// Gateway defaults, node listen addresses and per-model defaults are
// filled in place.
func (c *Cluster) Validate(catalog *models.Catalog) error {
	if c.Listen == "" {
		return errors.New("config: cluster listen address required")
	}
	g := &c.Cluster
	switch g.Placement {
	case "":
		g.Placement = "locality"
	case "locality", "least-loaded", "random":
	default:
		return fmt.Errorf("config: unknown placement policy %q (want locality, least-loaded, or random)", g.Placement)
	}
	if g.RebalanceHighWater > 1 {
		return errors.New("config: rebalance_high_water must be in [0,1]")
	}
	if err := errors.Join(
		nonNegative(&g.HeartbeatSec, 2, "heartbeat_sec"),
		nonNegative(&g.HeartbeatMissLimit, 3, "heartbeat_miss_limit"),
		nonNegative(&g.RebalanceSec, 0, "rebalance_sec"),
		nonNegative(&g.RebalanceHighWater, 0.75, "rebalance_high_water"),
		nonNegative(&g.RetryLimit, 2, "retry_limit"),
	); err != nil {
		return err
	}
	if err := c.Scheduling.validate(c.Global.KeepAliveSec); err != nil {
		return err
	}
	if len(c.Nodes) == 0 {
		return errors.New("config: at least one node required")
	}
	seen := make(map[string]bool, len(c.Nodes))
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Name == "" {
			return fmt.Errorf("config: nodes[%d] missing name", i)
		}
		if seen[n.Name] {
			return fmt.Errorf("config: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
		if n.Listen == "" {
			n.Listen = "127.0.0.1:0"
		}
		if n.GPUCount < 0 {
			return fmt.Errorf("config: node %q gpu_count must be non-negative", n.Name)
		}
		nodeCfg := c.NodeConfig(i)
		if err := nodeCfg.Validate(catalog); err != nil {
			return fmt.Errorf("config: node %q: %w", n.Name, err)
		}
		// Validate fills per-model defaults; copy them back.
		n.Models = nodeCfg.Models
		for j := range n.Models {
			m := &n.Models[j]
			if m.Class == "" {
				continue
			}
			if !c.Scheduling.Enabled() {
				return fmt.Errorf("config: node %q model %q names class %q but no scheduling classes are declared", n.Name, m.Name, m.Class)
			}
			if _, ok := c.Scheduling.Class(m.Class); !ok {
				return fmt.Errorf("config: node %q model %q names undeclared class %q", n.Name, m.Name, m.Class)
			}
		}
	}
	return nil
}

// NodeConfig assembles the single-node Config for the i-th node: the
// shared global parameters with the node's own listen address and model
// list.
func (c *Cluster) NodeConfig(i int) Config {
	n := c.Nodes[i]
	return Config{
		Listen:  n.Listen,
		Testbed: c.Testbed,
		Global:  c.Global,
		Models:  append([]Model(nil), n.Models...),
	}
}

// Heartbeat returns the heartbeat probe interval as a Duration.
func (c *Cluster) Heartbeat() time.Duration {
	return time.Duration(c.Cluster.HeartbeatSec * float64(time.Second))
}

// RebalanceEvery returns the rebalancer sweep interval (zero =
// disabled).
func (c *Cluster) RebalanceEvery() time.Duration {
	return time.Duration(c.Cluster.RebalanceSec * float64(time.Second))
}

// nonNegative rejects a negative *v, naming its key, and fills a zero
// one with def.
func nonNegative[T int | float64](v *T, def T, key string) error {
	if *v < 0 {
		return fmt.Errorf("config: %s must be non-negative", key)
	}
	if *v == 0 {
		*v = def
	}
	return nil
}
