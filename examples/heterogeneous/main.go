// Heterogeneous: engine-agnostic hot-swapping across all four inference
// engines (vLLM, Ollama, SGLang, TensorRT-LLM) on one GPU — the paper's
// core "engine-agnostic" claim. Each backend keeps its own runtime
// optimizations (vLLM's sleep mode shrinks its checkpoint), yet all are
// swapped by the same mechanism.
//
//	go run ./examples/heterogeneous
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
	cfg.Global.UseSleepMode = true // vLLM sleep-mode fast path (§4.2)
	cfg.Models = []config.Model{
		{Name: "llama3.2:1b-fp16", Engine: "vllm"},
		{Name: "deepseek-r1:7b-q4", Engine: "ollama"},
		{Name: "llama3.2:3b-fp16", Engine: "sglang"},
		{Name: "deepseek-r1:1.5b-fp16", Engine: "trtllm"},
	}
	clock := simclock.NewScaled(time.Now(), 2000)
	srv, err := core.New(cfg, core.Options{Clock: clock})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("cold-starting four heterogeneous engines (this is the slow part the paper eliminates)...")
	t0 := clock.Now()
	if err := srv.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown()
	fmt.Printf("init sequence took %.0fs simulated; every backend is now a host-memory snapshot\n\n",
		clock.Since(t0).Seconds())

	cli := openai.NewClient(srv.URL())
	for _, b := range srv.Backends() {
		seed := int64(3)
		start := clock.Now()
		resp, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
			Model:     b.Name(),
			Messages:  []ir.Message{{Role: "user", Content: "identify yourself"}},
			Seed:      &seed,
			MaxTokens: 8,
		})
		if err != nil {
			log.Fatalf("%s: %v", b.Name(), err)
		}
		swapIn := clock.Since(start)
		fmt.Printf("%-10s %-24s swap-in+decode %6.2fs (vs cold start: tens of seconds)\n",
			b.EngineKind(), b.Name(), swapIn.Seconds())
		_ = resp
	}

	fmt.Println("\nfinal backend states:")
	for _, b := range srv.Backends() {
		st := b.Status()
		fmt.Printf("  %-24s engine=%-8s state=%-12s swaps=%d/%d\n",
			st.Name, st.Engine, st.State, st.SwapIns, st.SwapOuts)
	}
}
