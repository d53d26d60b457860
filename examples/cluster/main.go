// Cluster: three SwapServeLLM nodes (80 GiB each) federated behind one
// gateway serving a twelve-model fleet — far more weight than the three
// GPUs can hold resident. The gateway's locality-first placement routes
// each request to the node whose backend is already warm (or whose RAM
// snapshot restores fastest), the heartbeat registry fences dead nodes,
// and in-flight requests fail over to a replica mid-stream.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"swapservellm/internal/cluster"
	"swapservellm/internal/config"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// fleet is the twelve-model deployment; model i lands on nodes i%3 and
// (i+1)%3, so every model has a replica and every node hosts eight.
var fleet = []string{
	"llama3.2:1b-fp16",
	"llama3.2:3b-fp16",
	"llama3.1:8b-fp16",
	"deepseek-r1:1.5b-fp16",
	"deepseek-r1:7b-fp16",
	"deepseek-r1:8b-fp16",
	"deepseek-r1:14b-fp16",
	"deepseek-coder:6.7b-fp16",
	"gemma:7b-fp16",
	"gemma3:4b-fp16",
	"gemma3:12b-fp16",
	"gemma3:27b-fp16",
}

func main() {
	cfg := config.DefaultCluster()
	cfg.Nodes = []config.Node{{Name: "node-0"}, {Name: "node-1"}, {Name: "node-2"}}
	for i, name := range fleet {
		m := config.Model{Name: name, Engine: "ollama"}
		cfg.Nodes[i%3].Models = append(cfg.Nodes[i%3].Models, m)
		cfg.Nodes[(i+1)%3].Models = append(cfg.Nodes[(i+1)%3].Models, m)
	}

	// The virtual clock jumps to the next simulated deadline whenever
	// every registered goroutine waits on it, so hardware latencies cost
	// no wall time and every duration printed is exact. main registers
	// itself, and its clients wait through the clock.
	clock := simclock.NewVirtual(time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC))
	gate := clock.Gate()
	gate.Enter()
	defer gate.Exit()
	c, err := cluster.New(cfg, cluster.WithClock(clock), cluster.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("starting 3 nodes x 80 GiB serving 12 models (~2x replicated)...")
	if err := c.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	fmt.Printf("gateway up, placement policy %s\n\n", c.Policy().Name())

	cli := openai.NewClient(c.URL())
	cli.Clock = clock
	seed := int64(3)

	// First touch is a placement miss: the chosen node restores the
	// model's GPU snapshot from host RAM. The second request repeats the
	// first one's body, so the gateway answers it from its response cache.
	for _, model := range []string{"llama3.1:8b-fp16", "llama3.1:8b-fp16", "gemma3:27b-fp16"} {
		start := clock.Now()
		resp, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
			Model:     model,
			Messages:  []ir.Message{{Role: "user", Content: "identify yourself"}},
			Seed:      &seed,
			MaxTokens: 8,
		})
		if err != nil {
			log.Fatalf("%s: %v", model, err)
		}
		fmt.Printf("%-18s TTLT %6.2fs  (%s)\n", model, clock.Since(start).Seconds(),
			trim(resp.Choices[0].Message.Content))
	}

	hits := c.Registry().Counter("placement_hits").Value()
	total := c.Registry().Counter("placement_total").Value()
	fmt.Printf("\nplacement: %.0f/%.0f warm hits\n", hits, total)

	// Failover: kill the node currently serving llama3.1:8b mid-fleet and
	// watch the next request land on the replica.
	var warmNode string
	for _, cand := range c.NodeRegistry().Candidates("llama3.1:8b-fp16") {
		if cand.Presence == cluster.PresenceWarm {
			warmNode = cand.NodeID
		}
	}
	fmt.Printf("\nkilling %s (currently warm for llama3.1:8b-fp16)...\n", warmNode)
	if err := c.KillNode(warmNode); err != nil {
		log.Fatal(err)
	}
	start := clock.Now()
	_, err = cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:     "llama3.1:8b-fp16",
		Messages:  []ir.Message{{Role: "user", Content: "still there?"}},
		Seed:      &seed,
		MaxTokens: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request failed over to a replica in %.2fs simulated\n", clock.Since(start).Seconds())
	fmt.Printf("cross-node retries: %.0f, failover successes: %.0f\n",
		c.Registry().Counter("cross_node_retries").Value(),
		c.Registry().Counter("failover_successes").Value())

	for _, n := range c.NodeRegistry().Nodes() {
		rep := n.Report()
		fmt.Printf("  node %-8s %-8s load %d, %d swap-ins\n", rep.ID, rep.State, rep.Load, rep.SwapIns)
	}
}

func trim(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
