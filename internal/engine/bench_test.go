package engine

import (
	"context"
	"testing"

	"swapservellm/internal/proxy/ir"
)

func BenchmarkTokenizerCountText(b *testing.B) {
	const text = "The quick brown fox jumps over the lazy dog, again and again, " +
		"while the scheduler swaps inference engines in and out of GPU memory."
	var tok Tokenizer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok.CountText(text)
	}
}

func BenchmarkTokenizerCountMessages(b *testing.B) {
	msgs := []ir.Message{
		{Role: "system", Content: "You are a helpful assistant."},
		{Role: "user", Content: "Explain transparent GPU checkpointing in two sentences."},
	}
	var tok Tokenizer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok.CountMessages(msgs)
	}
}

func BenchmarkGeneratorToken(b *testing.B) {
	var gen Generator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen.Token("benchmark prompt", 42, i%64)
	}
}

func BenchmarkCompletionLength(b *testing.B) {
	var gen Generator
	for i := 0; i < b.N; i++ {
		gen.CompletionLength("benchmark prompt", int64(i), 0)
	}
}

func BenchmarkGateWaitOpen(b *testing.B) {
	g := NewGate()
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Wait(ctx)
	}
}

// benchCtx returns a reusable background context.
func benchCtx() context.Context { return context.Background() }
