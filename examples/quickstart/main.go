// Quickstart: start an in-process SwapServeLLM deployment with one
// Ollama-backed model, watch the init sequence snapshot and pause it,
// then send a chat completion — the request transparently swaps the
// engine back into GPU memory before being served.
//
//	go run ./examples/quickstart
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
	// One model served by the Ollama engine on the H100 testbed profile.
	cfg := config.Default()
	cfg.Models = []config.Model{
		{Name: "llama3.2:1b-fp16", Engine: "ollama"},
	}

	// The virtual clock jumps to the next simulated deadline whenever
	// every registered goroutine waits on it, so hardware latencies cost
	// no wall time and every duration printed is exact. main registers
	// itself, and its clients wait through the clock.
	clock := simclock.NewVirtual(time.Date(2025, 11, 16, 0, 0, 0, 0, time.UTC))
	gate := clock.Gate()
	gate.Enter()
	defer gate.Exit()
	srv, err := core.New(cfg, core.Options{Clock: clock})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("initializing backend (cold start + GPU snapshot)...")
	if err := srv.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown()

	b, _ := srv.Backend("llama3.2:1b-fp16")
	fmt.Printf("backend state after init: %v (snapshot %.1f GiB)\n",
		b.State(), float64(b.RequiredBytes())/(1<<30))

	// A request for the swapped-out model triggers the hot-swap path.
	cli := openai.NewClient(srv.URL())
	cli.Clock = clock
	seed := int64(7)
	temp := 0.0
	t0 := clock.Now()
	resp, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:       "llama3.2:1b-fp16",
		Messages:    []ir.Message{{Role: "user", Content: "Why hot-swap inference engines?"}},
		MaxTokens:   24,
		Seed:        &seed,
		Temperature: &temp,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first request (incl. swap-in) took %.2fs simulated\n", clock.Since(t0).Seconds())
	fmt.Printf("completion: %s\n", resp.Choices[0].Message.Content)

	// The backend is now resident: the second request is served directly.
	t1 := clock.Now()
	if _, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:     "llama3.2:1b-fp16",
		Messages:  []ir.Message{{Role: "user", Content: "And again?"}},
		MaxTokens: 8,
		Seed:      &seed,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm request took %.2fs simulated\n", clock.Since(t1).Seconds())
	in, out := b.SwapCounts()
	fmt.Printf("swap-ins=%d swap-outs=%d state=%v\n", in, out, b.State())
}
