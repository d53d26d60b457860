package engine

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"swapservellm/internal/proxy/ir"
)

// postJSON posts a JSON body on the rig's clock and decodes the JSON
// response into out.
func postJSON(t *testing.T, r *testRig, url string, body string, out interface{}) *http.Response {
	t.Helper()
	resp, err := r.httpClient().Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

func TestEmbeddingsEndpoint(t *testing.T) {
	_, url, r := readyEngine(t)
	var got ir.EmbeddingsResponse
	resp := postJSON(t, r, url+"/v1/embeddings",
		`{"model":"llama3.2:1b-fp16","input":["first chunk","second chunk"]}`, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got.Object != "list" || len(got.Data) != 2 {
		t.Fatalf("response = %+v", got)
	}
	for i, e := range got.Data {
		if e.Index != i || e.Object != "embedding" || len(e.Embedding) != EmbeddingDim {
			t.Fatalf("embedding %d = %+v", i, e)
		}
		for _, v := range e.Embedding {
			if v < -1 || v > 1 {
				t.Fatalf("component %v out of [-1,1]", v)
			}
		}
	}
	if got.Usage.PromptTokens <= 0 || got.Usage.TotalTokens != got.Usage.PromptTokens {
		t.Fatalf("usage = %+v", got.Usage)
	}

	// Determinism: the same input always embeds identically (the property
	// the response cache and replayed traces rely on).
	var again ir.EmbeddingsResponse
	postJSON(t, r, url+"/v1/embeddings",
		`{"model":"llama3.2:1b-fp16","input":["first chunk","second chunk"]}`, &again)
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatal("embeddings are not deterministic")
	}
	// Distinct inputs embed differently.
	if got.Data[0].Embedding[0] == got.Data[1].Embedding[0] {
		t.Fatal("distinct inputs produced an identical leading component (suspicious)")
	}
}

func TestRerankEndpoint(t *testing.T) {
	_, url, r := readyEngine(t)
	var got ir.RerankResponse
	resp := postJSON(t, r, url+"/v1/rerank",
		`{"model":"llama3.2:1b-fp16","query":"swap latency","documents":["doc a","doc b","doc c"],"top_n":2}`, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(got.Results) != 2 {
		t.Fatalf("top_n not applied: %+v", got.Results)
	}
	if got.Results[0].RelevanceScore < got.Results[1].RelevanceScore {
		t.Fatalf("results not sorted by descending relevance: %+v", got.Results)
	}
	for _, r := range got.Results {
		if r.RelevanceScore < 0 || r.RelevanceScore > 1 {
			t.Fatalf("score %v out of [0,1]", r.RelevanceScore)
		}
		if r.Index < 0 || r.Index > 2 {
			t.Fatalf("index %d out of range", r.Index)
		}
	}

	var again ir.RerankResponse
	postJSON(t, r, url+"/v1/rerank",
		`{"model":"llama3.2:1b-fp16","query":"swap latency","documents":["doc a","doc b","doc c"],"top_n":2}`, &again)
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatal("rerank scores are not deterministic")
	}
}

func TestEncoderEndpointsRejectWrongModel(t *testing.T) {
	_, url, r := readyEngine(t)
	resp := postJSON(t, r, url+"/v1/embeddings", `{"model":"nonesuch","input":"x"}`, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("embeddings wrong model status = %d", resp.StatusCode)
	}
	resp = postJSON(t, r, url+"/v1/rerank", `{"model":"nonesuch","query":"q","documents":["d"]}`, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rerank wrong model status = %d", resp.StatusCode)
	}
}

func TestMultimodalChatCharging(t *testing.T) {
	// An attached image must charge the prompt budget with the projector
	// tokens (576/image) on top of the text tokens.
	_, url, r := readyEngine(t)
	textOnly := `{"model":"llama3.2:1b-fp16","messages":[{"role":"user","content":"describe"}],"max_tokens":4}`
	withImage := `{"model":"llama3.2:1b-fp16","messages":[{"role":"user","content":[{"type":"text","text":"describe"},{"type":"image_url","image_url":{"url":"data:image/png;base64,xyz"}}]}],"max_tokens":4}`

	var plain, vision ir.ChatCompletionResponse
	postJSON(t, r, url+"/v1/chat/completions", textOnly, &plain)
	postJSON(t, r, url+"/v1/chat/completions", withImage, &vision)
	if diff := vision.Usage.PromptTokens - plain.Usage.PromptTokens; diff != 576 {
		t.Fatalf("image charged %d prompt tokens, want 576 (plain %d, vision %d)",
			diff, plain.Usage.PromptTokens, vision.Usage.PromptTokens)
	}
}
