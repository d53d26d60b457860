package engine

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"swapservellm/internal/perfmodel"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// handler serves the OpenAI-compatible interface for one engine instance.
type handler struct {
	b *base
	// extra registers engine-specific routes (e.g. vLLM's sleep API).
	extra func(mux *http.ServeMux)
}

// Handler builds the engine's HTTP interface.
func (b *base) handlerWith(extra func(mux *http.ServeMux)) http.Handler {
	h := &handler{b: b, extra: extra}
	mux := http.NewServeMux()
	mux.HandleFunc("/health", h.health)
	mux.HandleFunc("/v1/models", h.listModels)
	mux.HandleFunc("/v1/chat/completions", h.inference(ir.FamilyChat))
	mux.HandleFunc("/v1/completions", h.inference(ir.FamilyCompletion))
	mux.HandleFunc("/v1/embeddings", h.inference(ir.FamilyEmbeddings))
	mux.HandleFunc("/v1/rerank", h.inference(ir.FamilyRerank))
	if extra != nil {
		extra(mux)
	}
	// The freezer gate wraps everything: a frozen process accepts TCP
	// connections (the kernel backlog) but never progresses them.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := h.b.gate.Wait(r.Context()); err != nil {
			return // client gave up while the process was frozen
		}
		mux.ServeHTTP(w, r)
	})
}

// health responds 200 once the engine is ready to serve.
func (h *handler) health(w http.ResponseWriter, r *http.Request) {
	switch h.b.State() {
	case StateReady:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case StateSleeping:
		// Sleep mode still answers health checks (the process is alive).
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "sleeping")
	default:
		w.WriteHeader(http.StatusServiceUnavailable)
	}
}

// listModels reports the single served model.
func (h *handler) listModels(w http.ResponseWriter, r *http.Request) {
	m := h.b.cfg.Model
	ir.WriteJSON(w, http.StatusOK, ir.ModelList{
		Object: "list",
		Data: []ir.ModelInfo{{
			ID:      m.Name,
			Object:  "model",
			Created: h.b.cfg.Clock.Now().Unix(),
			OwnedBy: string(h.b.kind),
		}},
	})
}

// inference is the prelude the four OpenAI POST endpoints share: it
// decodes the body through the IR codec, checks the model and the
// engine state, counts the request as in flight for the device's busy
// share, and dispatches the decoded request by family.
func (h *handler) inference(f ir.Family) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			ir.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST")
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			ir.WriteError(w, http.StatusBadRequest, "invalid_request_error", "reading body: "+err.Error())
			return
		}
		req, err := ir.OpenAICodec{}.DecodeRequest(f, body)
		if err != nil {
			ir.WriteError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
			return
		}
		if req.Model != h.b.cfg.Model.Name {
			ir.WriteError(w, http.StatusNotFound, "invalid_request_error",
				fmt.Sprintf("model %q is not served by this backend (serves %q)", req.Model, h.b.cfg.Model.Name))
			return
		}
		switch state := h.b.State(); state {
		case StateReady:
		case StateSleeping:
			ir.WriteError(w, http.StatusServiceUnavailable, "engine_sleeping",
				"engine is in sleep mode; wake it before serving")
			return
		default:
			ir.WriteError(w, http.StatusServiceUnavailable, "engine_not_ready",
				fmt.Sprintf("engine state: %v", state))
			return
		}

		h.b.active.Add(1)
		h.updateBusy()
		defer func() {
			h.b.active.Add(-1)
			h.updateBusy()
		}()
		switch f {
		case ir.FamilyChat:
			h.chat(w, r, req.Chat)
		case ir.FamilyCompletion:
			h.completion(w, r, req.Completion)
		case ir.FamilyEmbeddings:
			h.embeddings(w, r, req.Embeddings)
		case ir.FamilyRerank:
			h.rerank(w, r, req.Rerank)
		}
	}
}

// chat serves POST /v1/chat/completions with both blocking and SSE
// streaming responses, decoding tokens at the calibrated rate.
func (h *handler) chat(w http.ResponseWriter, r *http.Request, req *ir.ChatCompletionRequest) {
	var (
		tok  Tokenizer
		gen  Generator
		tb   = h.b.cfg.Testbed
		kind = h.b.kind
		m    = h.b.cfg.Model
	)
	prompt := PromptText(req.Messages)
	promptTokens := tok.CountMessages(req.Messages)
	// Multimodal attachments charge the prompt budget in projector-token
	// equivalents on top of the encoder passes slept below.
	var images int
	var audioSec float64
	for _, msg := range req.Messages {
		images += msg.Images()
		audioSec += msg.AudioSeconds()
	}
	promptTokens += images*perfmodel.VisionTokensPerImage + int(audioSec*perfmodel.AudioTokensPerSec)
	var seed int64
	if req.Seed != nil {
		seed = *req.Seed
	}
	n := gen.CompletionLength(prompt, seed, req.MaxTokens)
	if req.MinTokens > 0 && n < req.MinTokens {
		n = req.MinTokens // vLLM min_tokens extension
		if req.MaxTokens > 0 && n > req.MaxTokens {
			n = req.MaxTokens
		}
	}
	finish := "stop"
	if req.MaxTokens > 0 && n == req.MaxTokens {
		finish = "length"
	}

	// Vision/audio encoders run first, then compute-bound prefill.
	tb0 := h.b.cfg.Clock
	if enc := tb.VisionEncodeTime(images) + tb.AudioEncodeTime(audioSec); enc > 0 {
		tb0.Sleep(enc)
	}
	tb0.Sleep(tb.PrefillTime(kind, m, promptTokens))

	id := h.requestID("chatcmpl-")
	created := tb0.Now().Unix()
	usage := ir.Usage{
		PromptTokens:     promptTokens,
		CompletionTokens: n,
		TotalTokens:      promptTokens + n,
	}

	if req.Stream {
		h.streamChat(w, r, id, created, prompt, seed, n, usage, finish)
		return
	}

	// Blocking: decode every token, then respond.
	content, err := h.decodeText(r.Context(), prompt, seed, n)
	if err != nil {
		return
	}
	ir.WriteJSON(w, http.StatusOK, ir.ChatCompletionResponse{
		ID:      id,
		Object:  "chat.completion",
		Created: created,
		Model:   m.Name,
		Choices: []ir.Choice{{
			Message:      ir.Message{Role: "assistant", Content: content},
			FinishReason: finish,
		}},
		Usage: usage,
	})
}

// completion serves the legacy POST /v1/completions endpoint:
// plain-prompt generation with the same decode model as chat.
func (h *handler) completion(w http.ResponseWriter, r *http.Request, req *ir.CompletionRequest) {
	var (
		tok  Tokenizer
		gen  Generator
		tb   = h.b.cfg.Testbed
		kind = h.b.kind
		m    = h.b.cfg.Model
	)
	var seed int64
	if req.Seed != nil {
		seed = *req.Seed
	}
	clock := h.b.cfg.Clock
	id := h.requestID("cmpl-")
	created := clock.Now().Unix()

	var choices []ir.CompletionChoice
	var usage ir.Usage
	for idx, prompt := range req.Prompt {
		promptTokens := tok.CountText(prompt)
		n := gen.CompletionLength(prompt, seed, req.MaxTokens)
		finish := "stop"
		if req.MaxTokens > 0 && n == req.MaxTokens {
			finish = "length"
		}
		clock.Sleep(tb.PrefillTime(kind, m, promptTokens))
		text, err := h.decodeText(r.Context(), prompt, seed, n)
		if err != nil {
			return
		}
		choices = append(choices, ir.CompletionChoice{Text: text, Index: idx, FinishReason: &finish})
		usage.PromptTokens += promptTokens
		usage.CompletionTokens += n
	}
	usage.TotalTokens = usage.PromptTokens + usage.CompletionTokens
	ir.WriteJSON(w, http.StatusOK, ir.CompletionResponse{
		ID:      id,
		Object:  "text_completion",
		Created: created,
		Model:   m.Name,
		Choices: choices,
		Usage:   &usage,
	})
}

// streamChat emits SSE chunks token by token: a role preamble, one
// chunk per token, then the finish chunk with usage and [DONE]. One
// chunk is rewritten in place for every event, since the writer
// encodes each before it returns.
func (h *handler) streamChat(w http.ResponseWriter, r *http.Request,
	id string, created int64, prompt string, seed int64, n int, usage ir.Usage, finish string) {
	sw := ir.NewSSEWriter(w)
	chunk := &ir.ChatCompletionChunk{
		ID: id, Object: "chat.completion.chunk", Created: created, Model: h.b.cfg.Model.Name,
		Choices: []ir.DeltaChoice{{Delta: ir.Message{Role: "assistant"}}},
	}
	ev := &ir.StreamEvent{Chunk: chunk}
	if err := sw.WriteEvent(ev); err != nil {
		return
	}
	delta := &chunk.Choices[0].Delta
	delta.Role = ""
	if err := h.decode(r.Context(), prompt, seed, n, true, func(tok string) error {
		delta.Content = tok
		return sw.WriteEvent(ev)
	}); err != nil {
		return
	}
	delta.Content = ""
	chunk.Choices[0].FinishReason = &finish
	chunk.Usage = &usage
	ev.Done = true
	sw.WriteEvent(ev)
}

// decode is the loop every generation path shares. It charges decode
// time one run of tokens at a time, a run ending at the next token
// someone can observe: every token when flush is set (a stream sends
// each as it decodes), else only the last. It waits out a freeze before
// each run and hands the run's tokens to emit at its end, stopping at
// the first error from the gate or from emit.
//
// On a Scaled clock every token is its own run all the same: a timer
// wait there overshoots by the host's timer granularity times the
// scale, while Sleep spins its last stretch.
func (h *handler) decode(ctx context.Context, prompt string, seed int64, n int, flush bool, emit func(tok string) error) error {
	var gen Generator
	toks := gen.Stream(prompt, seed)
	tt := h.b.cfg.Testbed.TokenTime(h.b.kind, h.b.cfg.Model, 1)
	_, scaled := h.b.cfg.Clock.(*simclock.Scaled)
	for i := 0; i < n; {
		if err := h.b.gate.Wait(ctx); err != nil {
			return err
		}
		run := n - i
		if flush || scaled {
			run = 1
		}
		for end := i + h.sleepRun(ctx, tt, run); i < end; i++ {
			if err := emit(toks.Next()); err != nil {
				return err
			}
		}
	}
	return nil
}

// sleepRun charges run tokens of tt each on one clock wait and returns
// how many it charged. A freeze or a client cancel that lands inside
// the run ends it early: the token in flight still finishes at its own
// boundary, as it would decoding token by token, and only the tokens
// through it count. One that lands exactly on a boundary finds the next
// token started, since the run passed the gate there. A one-token run
// cannot end early, so it waits on nothing but the clock.
func (h *handler) sleepRun(ctx context.Context, tt time.Duration, run int) int {
	clock := h.b.cfg.Clock
	if run == 1 {
		clock.Sleep(tt)
		return 1
	}
	start := clock.Now()
	if simclock.GateFor(clock).Wait(time.Duration(run)*tt, h.b.gate.pausing(), ctx.Done()) < 0 {
		return run
	}
	elapsed := clock.Since(start)
	k := min(run, int(elapsed/tt)+1)
	clock.Sleep(time.Duration(k)*tt - elapsed)
	return k
}

// decodeText decodes n tokens into one buffered completion, giving up
// once the client has.
func (h *handler) decodeText(ctx context.Context, prompt string, seed int64, n int) (string, error) {
	var text strings.Builder
	err := h.decode(ctx, prompt, seed, n, false, func(tok string) error {
		text.WriteString(tok)
		return ctx.Err()
	})
	return text.String(), err
}

// requestID names the next response prefix + owner + "-" + sequence
// number, building it in a stack buffer so the string is its only
// allocation.
func (h *handler) requestID(prefix string) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	b = append(b, h.b.cfg.Owner...)
	b = append(b, '-')
	return string(strconv.AppendInt(b, h.b.reqSeq.Add(1), 10))
}

// updateBusy reflects in-flight request count in the device's compute
// utilization.
func (h *handler) updateBusy() {
	share := 0.25 * float64(h.b.active.Load())
	for _, d := range h.b.cfg.Devices {
		d.SetBusy(h.b.cfg.Owner, share)
	}
}
