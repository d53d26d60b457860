package config

import (
	"strings"
	"testing"

	"swapservellm/internal/models"
)

func validCluster() Cluster {
	c := DefaultCluster()
	c.Nodes = []Node{
		{Name: "node-a", Models: []Model{{Name: "llama3.2:1b-fp16", Engine: "ollama"}}},
		{Name: "node-b", Models: []Model{{Name: "llama3.2:1b-fp16", Engine: "ollama"}}},
	}
	return c
}

func TestClusterValidateDefaults(t *testing.T) {
	c := validCluster()
	if err := c.Validate(models.Default()); err != nil {
		t.Fatal(err)
	}
	want := ClusterGlobal{Placement: "locality", HeartbeatSec: 2, HeartbeatMissLimit: 3, RebalanceHighWater: 0.75, RetryLimit: 2}
	if c.Cluster != want {
		t.Fatalf("defaults not applied: %+v", c.Cluster)
	}
	if c.Nodes[0].Listen != "127.0.0.1:0" {
		t.Fatalf("node listen default = %q", c.Nodes[0].Listen)
	}
	// Per-model defaults flow through the single-node validation.
	if c.Nodes[0].Models[0].Image == "" {
		t.Fatal("node model image default missing")
	}
}

func TestClusterValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Cluster)
		want   string
	}{
		{"no nodes", func(c *Cluster) { c.Nodes = nil }, "at least one node"},
		{"dup node", func(c *Cluster) { c.Nodes[1].Name = "node-a" }, "duplicate node"},
		{"bad placement", func(c *Cluster) { c.Cluster.Placement = "warmest" }, "unknown placement"},
		{"bad model", func(c *Cluster) { c.Nodes[0].Models[0].Name = "nope" }, "not in catalog"},
		{"missing name", func(c *Cluster) { c.Nodes[0].Name = "" }, "missing name"},
		{"bad highwater", func(c *Cluster) { c.Cluster.RebalanceHighWater = 1.5 }, "rebalance_high_water"},
		{"negative heartbeat", func(c *Cluster) { c.Cluster.HeartbeatSec = -1 }, "heartbeat_sec must be non-negative"},
		{"negative retry limit", func(c *Cluster) { c.Cluster.RetryLimit = -1 }, "retry_limit must be non-negative"},
		{"negative ttl", func(c *Cluster) {
			c.Scheduling = SchedCfg{Classes: []SchedClass{{Name: "std", SLOSec: 10, RatePerSec: 1}}, TTLSec: -5}
		}, "ttl_sec must be non-negative"},
		{"adaptive ttl policy", func(c *Cluster) {
			c.Scheduling = SchedCfg{Classes: []SchedClass{{Name: "std", SLOSec: 10, RatePerSec: 1}}, TTLPolicy: "adaptive"}
		}, `unknown ttl_policy "adaptive"`},
	}
	for _, tc := range cases {
		c := validCluster()
		tc.mutate(&c)
		err := c.Validate(models.Default())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestParseCluster(t *testing.T) {
	js := `{
		"listen": "127.0.0.1:8090",
		"testbed": "h100",
		"global": {"keep_alive_sec": 20, "queue_capacity": 32},
		"cluster": {"placement": "least-loaded", "heartbeat_sec": 1.5, "rebalance_sec": 10},
		"nodes": [
			{"name": "a", "models": [{"name": "llama3.2:1b-fp16", "engine": "ollama"}]},
			{"name": "b", "models": [{"name": "llama3.1:8b-fp16", "engine": "vllm"}]}
		]
	}`
	c, err := ParseCluster(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(models.Default()); err != nil {
		t.Fatal(err)
	}
	if c.Cluster.Placement != "least-loaded" || c.Cluster.HeartbeatSec != 1.5 {
		t.Fatalf("cluster section = %+v", c.Cluster)
	}
	if c.RebalanceEvery().Seconds() != 10 {
		t.Fatalf("rebalance interval = %v", c.RebalanceEvery())
	}
	nc := c.NodeConfig(1)
	if nc.Testbed != "h100" || nc.Global.KeepAliveSec != 20 || len(nc.Models) != 1 {
		t.Fatalf("node config = %+v", nc)
	}
}

func TestParseClusterUnknownField(t *testing.T) {
	if _, err := ParseCluster(strings.NewReader(`{"gatway": "typo"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}
