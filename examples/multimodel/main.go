// Multimodel: the paper's §3.4 walkthrough. Six models share one 80 GiB
// GPU; bursty traffic makes SwapServeLLM hot-swap engines in and out
// under the demand-aware preemption policy, including the scenario where
// a LLaMA 3.3 70B FP8 request forces two resident models out.
//
//	go run ./examples/multimodel
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

var models = []string{
	"gemma:7b-fp16",
	"deepseek-coder:6.7b-fp16",
	"llama3.2:1b-fp16",
	"llama3.2:3b-fp16",
	"deepseek-r1:7b-q8",
	"llama3.3:70b-fp8",
}

func main() {
	cfg := config.Default()
	for _, m := range models {
		cfg.Models = append(cfg.Models, config.Model{Name: m, Engine: "ollama"})
	}
	clock := simclock.NewScaled(time.Now(), 2000)
	srv, err := core.New(cfg, core.Options{Clock: clock})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initializing %d backends sequentially...\n", len(models))
	if err := srv.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown()
	printStates(srv, "after init (all snapshotted)")

	cli := openai.NewClient(srv.URL())
	ask := func(model string, tokens int) {
		seed := int64(1)
		if _, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
			Model:     model,
			Messages:  []ir.Message{{Role: "user", Content: "burst"}},
			Seed:      &seed,
			MaxTokens: tokens,
		}); err != nil {
			log.Printf("%s: %v", model, err)
		}
	}

	// §3.4: Gemma 7B and DeepSeek Coder 6.7B arrive together — both fit.
	var wg sync.WaitGroup
	for _, m := range []string{"gemma:7b-fp16", "deepseek-coder:6.7b-fp16"} {
		wg.Add(1)
		go func(m string) { defer wg.Done(); ask(m, 16) }(m)
	}
	wg.Wait()
	printStates(srv, "after concurrent Gemma + DeepSeek-Coder requests")

	// A LLaMA 3.3 70B FP8 request (≈77 GiB) must swap both out.
	ask("llama3.3:70b-fp8", 8)
	printStates(srv, "after the 70B request (both preempted)")

	// A bursty tail across the small models churns the GPU.
	for i := 0; i < 6; i++ {
		ask(models[i%4], 8)
	}
	printStates(srv, "after the bursty tail")

	var swapIns int64
	for _, b := range srv.Backends() {
		in, _ := b.SwapCounts()
		swapIns += in
	}
	fmt.Printf("\ntotal hot swap-ins across the run: %d (zero cold starts after init)\n", swapIns)
}

func printStates(srv *core.Server, label string) {
	fmt.Printf("\n%s:\n", label)
	for _, b := range srv.Backends() {
		st := b.Status()
		fmt.Printf("  %-26s %-12s gpu=%5.1fGiB swaps=%d/%d\n",
			st.Name, st.State, float64(st.GPUBytes)/(1<<30), st.SwapIns, st.SwapOuts)
	}
}
