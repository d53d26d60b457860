// Command swapctl is the SwapServeLLM control client: it lists models,
// inspects backend/GPU state, triggers explicit swaps, and sends chat
// completions against a running swapserved.
//
//	swapctl -addr 127.0.0.1:8080 models
//	swapctl status
//	swapctl chat -model llama3.2:1b-fp16 -prompt "hello" -stream
//	swapctl swap-out -model llama3.2:1b-fp16
//	swapctl metrics
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "swapserved router address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	base := "http://" + *addr
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "models":
		cmdModels(base)
	case "status":
		cmdStatus(base)
	case "chat":
		cmdChat(base, rest)
	case "swap-in", "swap-out":
		cmdSwap(base, cmd, rest)
	case "metrics":
		cmdMetrics(base)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: swapctl [-addr host:port] <command>

commands:
  models                      list served models
  status                      backend and GPU state
  chat -model M -prompt P     send a chat completion (-stream, -max N, -seed S)
  swap-in  -model M           explicitly swap a backend in
  swap-out -model M           explicitly swap a backend out
  metrics                     dump the server's metrics CSV`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swapctl:", err)
	os.Exit(1)
}

func cmdModels(base string) {
	list, err := openai.NewClient(base).ListModels(context.Background())
	if err != nil {
		fatal(err)
	}
	for _, m := range list.Data {
		fmt.Printf("%-32s owned_by=%s\n", m.ID, m.OwnedBy)
	}
}

func cmdStatus(base string) {
	resp, err := http.Get(base + "/admin/status")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Backends []map[string]interface{} `json:"backends"`
		GPUs     []map[string]interface{} `json:"gpus"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		fatal(err)
	}
	fmt.Println("backends:")
	for _, b := range status.Backends {
		fmt.Printf("  %-28s engine=%-8s state=%-12s queue=%v active=%v swaps=%v/%v\n",
			b["name"], b["engine"], b["state"], b["queue_len"], b["active"], b["swap_ins"], b["swap_outs"])
	}
	fmt.Println("gpus:")
	for _, g := range status.GPUs {
		fmt.Printf("  gpu %v: %.1f/%.1f GiB used, util %.0f%%\n",
			g["id"], g["used_gib"], g["total_gib"], 100*toF(g["utilization"]))
	}
}

func toF(v interface{}) float64 {
	f, _ := v.(float64)
	return f
}

func cmdChat(base string, args []string) {
	fs := flag.NewFlagSet("chat", flag.ExitOnError)
	model := fs.String("model", "", "model to query (required)")
	prompt := fs.String("prompt", "Hello!", "user prompt")
	stream := fs.Bool("stream", false, "stream tokens as they decode")
	maxTok := fs.Int("max", 64, "max completion tokens")
	seed := fs.Int64("seed", 0, "generation seed (deterministic at temperature 0)")
	fs.Parse(args)
	if *model == "" {
		fatal(fmt.Errorf("chat: -model is required"))
	}
	temp := 0.0
	req := &ir.ChatCompletionRequest{
		Model:       *model,
		Messages:    []ir.Message{{Role: "user", Content: *prompt}},
		MaxTokens:   *maxTok,
		Temperature: &temp,
		Seed:        seed,
	}
	cli := openai.NewClient(base)
	if *stream {
		err := cli.ChatCompletionStream(context.Background(), req, func(c *ir.ChatCompletionChunk) error {
			if len(c.Choices) > 0 {
				fmt.Print(c.Choices[0].Delta.Content)
			}
			return nil
		})
		fmt.Println()
		if err != nil {
			fatal(err)
		}
		return
	}
	resp, err := cli.ChatCompletion(context.Background(), req)
	if err != nil {
		fatal(err)
	}
	fmt.Println(resp.Choices[0].Message.Content)
	fmt.Printf("[%d prompt + %d completion tokens, finish=%s]\n",
		resp.Usage.PromptTokens, resp.Usage.CompletionTokens, resp.Choices[0].FinishReason)
}

func cmdSwap(base, dir string, args []string) {
	fs := flag.NewFlagSet(dir, flag.ExitOnError)
	model := fs.String("model", "", "model to swap (required)")
	fs.Parse(args)
	if *model == "" {
		fatal(fmt.Errorf("%s: -model is required", dir))
	}
	resp, err := http.Post(base+"/admin/"+dir+"?model="+*model, "", nil)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("%s: %s", resp.Status, body))
	}
	fmt.Printf("%s\n", body)
}

func cmdMetrics(base string) {
	resp, err := http.Get(base + "/metrics.csv")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body)
}
