package openai

import (
	"bytes"
	"testing"

	"swapservellm/internal/proxy/ir"
)

func BenchmarkSSEWriteChunk(b *testing.B) {
	var buf bytes.Buffer
	w := ir.NewSSEWriter(&buf)
	ev := &ir.StreamEvent{Chunk: &ir.ChatCompletionChunk{
		ID:      "chatcmpl-bench",
		Object:  "chat.completion.chunk",
		Model:   "llama3.2:1b-fp16",
		Choices: []ir.DeltaChoice{{Delta: ir.Message{Content: " token"}}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w.WriteEvent(ev)
	}
}

func BenchmarkSSERoundTrip(b *testing.B) {
	var buf bytes.Buffer
	w := ir.NewSSEWriter(&buf)
	ev := &ir.StreamEvent{Chunk: &ir.ChatCompletionChunk{
		ID:      "c",
		Choices: []ir.DeltaChoice{{Delta: ir.Message{Content: " hello"}}},
	}}
	for i := 0; i < 64; i++ {
		w.WriteEvent(ev)
	}
	w.WriteEvent(&ir.StreamEvent{Done: true})
	stream := buf.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := readStream(bytes.NewReader(stream), func(*ir.ChatCompletionChunk) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRequestValidate(b *testing.B) {
	req := &ir.ChatCompletionRequest{
		Model: "llama3.1:8b-fp16",
		Messages: []ir.Message{
			{Role: "system", Content: "be helpful"},
			{Role: "user", Content: "summarize this document please"},
		},
		MaxTokens: 128,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := req.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
