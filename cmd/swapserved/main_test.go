package main

import (
	"context"
	"testing"
	"time"

	"swapservellm/internal/core"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// TestDemoServesOnScaledClock smoke-tests the daemon's clock, the one
// Scaled clock left: the demo deployment on a DefaultScale clock serves
// one buffered and one streamed chat to a client over TCP. A scaled
// clock's timings depend on the host, so nothing here is timed.
func TestDemoServesOnScaledClock(t *testing.T) {
	cfg := demoConfig()
	cfg.Listen = "127.0.0.1:0"
	s, err := core.New(cfg, core.Options{Clock: simclock.NewScaled(time.Now(), simclock.DefaultScale)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	cli := openai.NewClient(s.URL())
	seed := int64(7)
	req := func() *ir.ChatCompletionRequest {
		return &ir.ChatCompletionRequest{
			Model:     cfg.Models[0].Name,
			Messages:  []ir.Message{{Role: "user", Content: "smoke"}},
			Seed:      &seed,
			MaxTokens: 4,
		}
	}
	if _, err := cli.ChatCompletion(ctx, req()); err != nil {
		t.Fatalf("buffered chat: %v", err)
	}
	var finish *string
	err = cli.ChatCompletionStream(ctx, req(), func(c *ir.ChatCompletionChunk) error {
		if len(c.Choices) > 0 && c.Choices[0].FinishReason != nil {
			finish = c.Choices[0].FinishReason
		}
		return nil
	})
	if err != nil {
		t.Fatalf("streamed chat: %v", err)
	}
	if finish == nil || *finish == "" {
		t.Fatal("stream ended without a finish chunk")
	}
}
