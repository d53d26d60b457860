package openai

import (
	"encoding/json"
	"testing"

	"swapservellm/internal/proxy/ir"
)

func TestPromptFieldUnmarshalString(t *testing.T) {
	var req ir.CompletionRequest
	if err := json.Unmarshal([]byte(`{"model":"m","prompt":"hello"}`), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Prompt) != 1 || req.Prompt[0] != "hello" {
		t.Fatalf("prompt = %v", req.Prompt)
	}
}

func TestPromptFieldUnmarshalArray(t *testing.T) {
	var req ir.CompletionRequest
	if err := json.Unmarshal([]byte(`{"model":"m","prompt":["a","b"]}`), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Prompt) != 2 || req.Prompt[1] != "b" {
		t.Fatalf("prompt = %v", req.Prompt)
	}
}

func TestPromptFieldUnmarshalNullAndBad(t *testing.T) {
	var req ir.CompletionRequest
	if err := json.Unmarshal([]byte(`{"model":"m","prompt":null}`), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Prompt) != 0 {
		t.Fatalf("null prompt = %v", req.Prompt)
	}
	if err := json.Unmarshal([]byte(`{"model":"m","prompt":42}`), &req); err == nil {
		t.Fatal("numeric prompt accepted")
	}
}

func TestPromptFieldMarshal(t *testing.T) {
	single, err := json.Marshal(ir.PromptField{"one"})
	if err != nil || string(single) != `"one"` {
		t.Fatalf("single = %s, %v", single, err)
	}
	multi, err := json.Marshal(ir.PromptField{"a", "b"})
	if err != nil || string(multi) != `["a","b"]` {
		t.Fatalf("multi = %s, %v", multi, err)
	}
}

func TestCompletionRequestValidate(t *testing.T) {
	valid := ir.CompletionRequest{Model: "m", Prompt: ir.PromptField{"p"}}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ir.CompletionRequest{
		{Prompt: ir.PromptField{"p"}},
		{Model: "m"},
		{Model: "m", Prompt: ir.PromptField{"p"}, MaxTokens: -1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	temp := 3.0
	withTemp := valid
	withTemp.Temperature = &temp
	if err := withTemp.Validate(); err == nil {
		t.Error("temperature 3 accepted")
	}
}

func TestChatMinTokensValidate(t *testing.T) {
	r := ir.ChatCompletionRequest{
		Model:     "m",
		Messages:  []ir.Message{{Role: "user", Content: "x"}},
		MinTokens: -1,
	}
	if err := r.Validate(); err == nil {
		t.Fatal("negative min_tokens accepted")
	}
	r.MinTokens = 10
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}
