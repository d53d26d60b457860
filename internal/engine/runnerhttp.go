package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"swapservellm/internal/proxy/ir"
)

// Handler exposes the runner manager as an Ollama-style multi-model
// server: OpenAI-compatible inference endpoints that load the requested
// model on demand (evicting LRU runners under memory pressure), plus the
// /api/ps-style listing of resident runners. This is the baseline system
// the paper compares against (§2.3, Figure 5).
func (rm *RunnerManager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/chat/completions", rm.serveInference)
	mux.HandleFunc("/v1/completions", rm.serveInference)
	mux.HandleFunc("/v1/models", rm.serveModels)
	mux.HandleFunc("/api/ps", rm.servePS)
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// serveInference loads the requested model's runner on demand and
// delegates the request to it.
func (rm *RunnerManager) serveInference(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		ir.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		ir.WriteError(w, http.StatusBadRequest, "invalid_request_error", "reading body: "+err.Error())
		return
	}
	var probe struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		ir.WriteError(w, http.StatusBadRequest, "invalid_request_error", "malformed JSON: "+err.Error())
		return
	}
	if probe.Model == "" {
		ir.WriteError(w, http.StatusBadRequest, "invalid_request_error", "missing required field: model")
		return
	}
	eng, err := rm.Acquire(r.Context(), probe.Model)
	if err != nil {
		ir.WriteError(w, http.StatusNotFound, "model_load_error", err.Error())
		return
	}
	// Delegate to the runner's own handler with the original body.
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	eng.Handler().ServeHTTP(w, r2)
}

// serveModels lists every model the catalog can serve.
func (rm *RunnerManager) serveModels(w http.ResponseWriter, r *http.Request) {
	list := ir.ModelList{Object: "list"}
	for _, name := range rm.catalog.Names() {
		list.Data = append(list.Data, ir.ModelInfo{
			ID:      name,
			Object:  "model",
			Created: rm.clock.Now().Unix(),
			OwnedBy: "ollama",
		})
	}
	ir.WriteJSON(w, http.StatusOK, list)
}

// psEntry mirrors `ollama ps` output: a resident runner and its memory.
type psEntry struct {
	Name     string  `json:"name"`
	SizeVRAM int64   `json:"size_vram"`
	SizeGiB  float64 `json:"size_gib"`
}

// servePS reports the loaded runners, most recently used first.
func (rm *RunnerManager) servePS(w http.ResponseWriter, r *http.Request) {
	var out struct {
		Models []psEntry `json:"models"`
	}
	rm.mu.Lock()
	loadedEntries := make(map[string]*runnerEntry, len(rm.runners))
	for name, e := range rm.runners {
		if e.eng != nil {
			loadedEntries[name] = e
		}
	}
	rm.mu.Unlock()
	for _, name := range rm.Loaded() {
		e, ok := loadedEntries[name]
		if !ok {
			continue
		}
		bytes := e.eng.GPUBytes()
		out.Models = append(out.Models, psEntry{
			Name:     name,
			SizeVRAM: bytes,
			SizeGiB:  float64(bytes) / (1 << 30),
		})
	}
	ir.WriteJSON(w, http.StatusOK, out)
}
