// Multigpu: the §6 multi-GPU orchestration discussion. A tensor-parallel
// backend spans two GPUs; SwapServeLLM reserves memory on every device
// of the backend's topology with scoped acquire-release semantics, so
// swap-ins never overcommit either device.
//
//	go run ./examples/multigpu
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
	cfg.Models = []config.Model{
		// A tensor-parallel 70B backend spanning GPUs 0 and 1.
		{Name: "llama3.3:70b-fp8", Engine: "ollama", GPUs: []int{0, 1}},
		// Two single-GPU backends pinned to each device.
		{Name: "llama3.1:8b-fp16", Engine: "ollama", GPUs: []int{0}},
		{Name: "deepseek-r1:7b-fp16", Engine: "ollama", GPUs: []int{1}},
	}
	clock := simclock.NewScaled(time.Now(), 2000)
	srv, err := core.New(cfg, core.Options{Clock: clock, GPUCount: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown()

	printGPUs := func(label string) {
		fmt.Printf("%s:\n", label)
		for _, st := range srv.TaskManager().Monitor().Sample() {
			fmt.Printf("  gpu %d: %5.1f/%5.1f GiB used\n",
				st.ID, float64(st.UsedBytes)/(1<<30), float64(st.TotalBytes)/(1<<30))
		}
	}
	printGPUs("after init (all snapshotted)")

	cli := openai.NewClient(srv.URL())
	ask := func(model string) {
		seed := int64(5)
		if _, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
			Model:     model,
			Messages:  []ir.Message{{Role: "user", Content: "tp"}},
			Seed:      &seed,
			MaxTokens: 6,
		}); err != nil {
			log.Fatalf("%s: %v", model, err)
		}
	}

	// Both single-GPU backends come in, one per device.
	ask("llama3.1:8b-fp16")
	ask("deepseek-r1:7b-fp16")
	printGPUs("\nafter per-device backends swapped in")

	// The tensor-parallel 70B needs room on BOTH devices: the scheduler
	// reserves on each and the preemption policy clears what it must.
	t0 := clock.Now()
	ask("llama3.3:70b-fp8")
	fmt.Printf("\n70B tensor-parallel swap-in (incl. preemptions) took %.2fs simulated\n",
		clock.Since(t0).Seconds())
	printGPUs("after the tensor-parallel swap-in")

	for _, b := range srv.Backends() {
		st := b.Status()
		fmt.Printf("  %-22s state=%-12s gpus=%v\n", st.Name, st.State, b.GPUs())
	}
}
