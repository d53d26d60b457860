// Serverless: the full elasticity feature set on one deployment — the
// idle reaper (generalized keep-alive) frees GPU memory behind idle
// backends, the predictive prefetcher swaps backends in ahead of
// periodic traffic, and snapshot tiering spills cold checkpoint images
// to disk under a host-memory cap.
//
//	go run ./examples/serverless
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

func main() {
	cfg := config.Default()
	cfg.Global.KeepAliveSec = 12       // reap backends idle for 12 simulated seconds
	cfg.Global.Prefetch = true         // predictive swap-ins
	cfg.Global.SnapshotHostCapGiB = 40 // host RAM budget for snapshots; LRU images spill to disk
	cfg.Models = []config.Model{
		{Name: "deepseek-r1:14b-fp16", Engine: "ollama"}, // ~31 GiB snapshot
		{Name: "llama3.1:8b-fp16", Engine: "ollama"},     // ~17 GiB snapshot
		{Name: "llama3.2:1b-fp16", Engine: "ollama"},     // ~3.6 GiB snapshot
	}
	clock := simclock.NewScaled(time.Now(), 1000)
	srv, err := core.New(cfg, core.Options{Clock: clock})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown()

	// The 40 GiB host cap cannot hold all three snapshots: the first
	// (LRU) image spilled to disk during the init sequence.
	fmt.Println("snapshot tiers after init (40 GiB host cap):")
	for _, b := range srv.Backends() {
		loc, _ := srv.Driver().ImageLocation(b.Container().ID())
		img, _ := srv.Driver().ImageBytes(b.Container().ID())
		fmt.Printf("  %-24s %5.1f GiB on %s\n", b.Name(), float64(img)/(1<<30), loc)
	}

	cli := openai.NewClient(srv.URL())
	ask := func(model string) time.Duration {
		seed := int64(9)
		t0 := clock.Now()
		if _, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
			Model:     model,
			Messages:  []ir.Message{{Role: "user", Content: "serverless"}},
			Seed:      &seed,
			MaxTokens: 4,
		}); err != nil {
			log.Fatalf("%s: %v", model, err)
		}
		return clock.Since(t0)
	}

	// Restoring the disk-spilled 14B pays the disk read; the RAM-resident
	// 8B restores fast.
	fmt.Printf("\nfirst request, 14B (disk tier):  %.2fs simulated\n", ask("deepseek-r1:14b-fp16").Seconds())
	fmt.Printf("first request, 8B (RAM tier):    %.2fs simulated\n", ask("llama3.1:8b-fp16").Seconds())

	// Periodic traffic to the 1B model teaches the prefetcher its rhythm:
	// after a few periods the swap-in happens before the request arrives.
	fmt.Println("\nperiodic 1B traffic (every ~20 simulated seconds):")
	for i := 0; i < 6; i++ {
		lat := ask("llama3.2:1b-fp16")
		fmt.Printf("  request %d: %.2fs simulated\n", i+1, lat.Seconds())
		time.Sleep(20 * time.Millisecond) // 20 simulated seconds at scale 1000
	}
	fmt.Printf("\nidle reaps: %.0f, prefetch swap-ins: %.0f\n",
		srv.Registry().Counter("idle_reaps").Value(),
		srv.Registry().Counter("prefetch_swap_ins").Value())
	fmt.Println("(the reaper frees idle backends; the prefetcher hides their swap-in latency)")
}
