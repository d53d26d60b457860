package engine

import (
	"net/http"
	"sort"

	"swapservellm/internal/proxy/ir"
)

// Encoder-only endpoints: POST /v1/embeddings and POST /v1/rerank.
// These are served by the same engine instance as chat (the simulation
// treats every model as multi-headed) with their own perfmodel compute
// curves — a single batched forward pass instead of prefill + decode.

// embeddings serves POST /v1/embeddings: one batched encoder pass
// over all inputs, then a deterministic vector per input.
func (h *handler) embeddings(w http.ResponseWriter, r *http.Request, req *ir.EmbeddingsRequest) {
	var (
		tok Tokenizer
		gen Generator
	)
	total := 0
	for _, text := range req.Input {
		total += tok.CountText(text)
	}
	if err := h.b.gate.Wait(r.Context()); err != nil {
		return
	}
	h.b.cfg.Clock.Sleep(h.b.cfg.Testbed.EmbedTime(h.b.kind, h.b.cfg.Model, len(req.Input), total))

	data := make([]ir.Embedding, len(req.Input))
	for i, text := range req.Input {
		data[i] = ir.Embedding{Object: "embedding", Index: i, Embedding: gen.Embedding(text, EmbeddingDim)}
	}
	ir.WriteJSON(w, http.StatusOK, ir.EmbeddingsResponse{
		Object: "list",
		Data:   data,
		Model:  h.b.cfg.Model.Name,
		Usage:  ir.Usage{PromptTokens: total, TotalTokens: total},
	})
}

// rerank serves POST /v1/rerank (the Cohere/Jina shape): one
// batched cross-encoder pass scoring every query-document pair, results
// sorted by descending relevance.
func (h *handler) rerank(w http.ResponseWriter, r *http.Request, req *ir.RerankRequest) {
	var (
		tok Tokenizer
		gen Generator
	)
	queryTokens := tok.CountText(req.Query)
	total := 0
	for _, doc := range req.Documents {
		total += queryTokens + tok.CountText(doc) // cross-encoder re-reads the query per pair
	}
	if err := h.b.gate.Wait(r.Context()); err != nil {
		return
	}
	h.b.cfg.Clock.Sleep(h.b.cfg.Testbed.RerankTime(h.b.kind, h.b.cfg.Model, len(req.Documents), total))

	results := make([]ir.RerankResult, len(req.Documents))
	for i, doc := range req.Documents {
		results[i] = ir.RerankResult{Index: i, RelevanceScore: gen.RerankScore(req.Query, doc)}
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].RelevanceScore != results[j].RelevanceScore {
			return results[i].RelevanceScore > results[j].RelevanceScore
		}
		return results[i].Index < results[j].Index
	})
	if req.TopN > 0 && req.TopN < len(results) {
		results = results[:req.TopN]
	}
	ir.WriteJSON(w, http.StatusOK, ir.RerankResponse{
		Model:   h.b.cfg.Model.Name,
		Results: results,
		Usage:   ir.Usage{PromptTokens: total, TotalTokens: total},
	})
}
