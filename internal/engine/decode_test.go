package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// The decode equivalence tests pin the run loop (handler.decode) to the
// per-token loop it replaced, kept below as perToken: one clock sleep
// per token, the gate checked before each. Every scenario runs on a
// fresh Virtual clock, so the instants compared are exact; timers are
// counted on a recordingClock, which fires each one at once.

const (
	decodeModel  = "llama3.2:1b-fp16"
	decodePrompt = "decode runs"
	decodeSeed   = 5
)

// decodeLoop is a decode loop under test: the run loop or the reference.
type decodeLoop func(h *handler, ctx context.Context, n int, flush bool, emit func(string) error) error

// runLoop is the loop under test.
func runLoop(h *handler, ctx context.Context, n int, flush bool, emit func(string) error) error {
	return h.decode(ctx, decodePrompt, decodeSeed, n, flush, emit)
}

// perToken is the reference: the decode loop as it was before runs,
// which waits out a freeze, sleeps one token and emits it, token by
// token, whether or not anyone sees the tokens in between.
func perToken(h *handler, ctx context.Context, n int, _ bool, emit func(string) error) error {
	var gen Generator
	toks := gen.Stream(decodePrompt, decodeSeed)
	for i := 0; i < n; i++ {
		if err := h.b.gate.Wait(ctx); err != nil {
			return err
		}
		h.b.cfg.Clock.Sleep(h.b.cfg.Testbed.TokenTime(h.b.kind, h.b.cfg.Model, 1))
		if err := emit(toks.Next()); err != nil {
			return err
		}
	}
	return nil
}

// readyHandler returns the handler of a ready Ollama engine on clock.
// Decoding needs only the gate, the clock and the perf model, so the
// engine skips Init and reads ready at once.
func readyHandler(t *testing.T, clock simclock.Clock) *handler {
	t.Helper()
	r := rigOn(clock)
	b, err := newBase(perfmodel.EngineOllama, r.config(t, "decode", decodeModel))
	if err != nil {
		t.Fatal(err)
	}
	b.state.Store(int32(StateReady))
	return &handler{b: b}
}

// chatOn returns a ready engine's handler on a fresh Virtual clock, with
// the test registered on it until it ends, an n-token chat request for
// it, and the request's prefill time.
func chatOn(t *testing.T, n int) (*handler, *ir.ChatCompletionRequest, time.Duration) {
	t.Helper()
	h := readyHandler(t, newRig(t).clock)
	req := chatReq(decodeModel, decodePrompt)
	req.MinTokens, req.MaxTokens = n, n
	var tok Tokenizer
	return h, req, h.b.cfg.Testbed.PrefillTime(h.b.kind, h.b.cfg.Model, tok.CountMessages(req.Messages))
}

// tokenTime is the decode time of one token on the test engine.
func tokenTime() time.Duration {
	return perfmodel.H100().TokenTime(perfmodel.EngineOllama, models.Default().MustLookup(decodeModel), 1)
}

// decodeTrace is what a scenario observed, as offsets from the decode's
// start: each emitted token's instant and the instant decode returned.
type decodeTrace struct {
	emits []time.Duration
	ret   time.Duration
	err   error
}

// runScenario decodes n tokens with loop on a fresh Virtual clock, as a
// buffered response (emit returns the context's error, as decodeText's
// does) or a flushed one. event, if set, runs beside the decode on its
// own registered goroutine from the same instant, with the decode's
// handler and the cancel of its context.
func runScenario(t *testing.T, loop decodeLoop, n int, flush bool, event func(h *handler, cancel func())) decodeTrace {
	t.Helper()
	clock := simclock.NewVirtual(testEpoch)
	gate := clock.Gate()
	gate.Enter()
	defer gate.Exit()
	h := readyHandler(t, clock)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tr decodeTrace
	start := clock.Now()
	g := simclock.NewGroup(clock)
	g.Go(func() {
		tr.err = loop(h, ctx, n, flush, func(string) error {
			tr.emits = append(tr.emits, clock.Since(start))
			if flush {
				return nil
			}
			return ctx.Err()
		})
		tr.ret = clock.Since(start)
	})
	if event != nil {
		g.Go(func() { event(h, cancel) })
	}
	g.Wait()
	return tr
}

// freezeAt returns an event that pauses the engine at offset pause and
// resumes it at offset resume.
func freezeAt(pause, resume time.Duration) func(h *handler, cancel func()) {
	return func(h *handler, _ func()) {
		h.b.cfg.Clock.Sleep(pause)
		h.b.gate.Pause()
		h.b.cfg.Clock.Sleep(resume - pause)
		h.b.gate.Resume()
	}
}

// runEnds checks a buffered trace against the per-token reference:
// tokens come out in runs, each token at the reference instant of the
// last token of its run, and the decode returns when the reference
// does. It returns the number of runs.
func runEnds(t *testing.T, got, ref decodeTrace) int {
	t.Helper()
	if got.ret != ref.ret {
		t.Fatalf("decode returned at %v, per-token loop at %v", got.ret, ref.ret)
	}
	if len(got.emits) != len(ref.emits) {
		t.Fatalf("emitted %d tokens, per-token loop %d", len(got.emits), len(ref.emits))
	}
	runs := 0
	for j := range got.emits {
		last := j
		for last+1 < len(got.emits) && got.emits[last+1] == got.emits[j] {
			last++
		}
		if got.emits[j] != ref.emits[last] {
			t.Fatalf("token %d emitted at %v; its run ends with token %d, which the per-token loop ends at %v",
				j+1, got.emits[j], last+1, ref.emits[last])
		}
		if j == 0 || got.emits[j] != got.emits[j-1] {
			runs++
		}
	}
	return runs
}

// sameTrace checks that a flushed trace matches the reference exactly.
func sameTrace(t *testing.T, got, ref decodeTrace) {
	t.Helper()
	if got.ret != ref.ret || len(got.emits) != len(ref.emits) {
		t.Fatalf("stream: %d tokens, returned at %v; per-token loop %d tokens, returned at %v",
			len(got.emits), got.ret, len(ref.emits), ref.ret)
	}
	for j := range got.emits {
		if got.emits[j] != ref.emits[j] {
			t.Fatalf("stream token %d at %v, per-token loop at %v", j+1, got.emits[j], ref.emits[j])
		}
	}
}

// TestDecodeRunBuffered: a buffered decode of n tokens is one run. It
// ends at exactly prefill + n·tt, as the per-token loop does, and arms
// one decode timer where the per-token loop arms n.
func TestDecodeRunBuffered(t *testing.T) {
	const n = 24
	got := runScenario(t, runLoop, n, false, nil)
	ref := runScenario(t, perToken, n, false, nil)
	if runs := runEnds(t, got, ref); runs != 1 {
		t.Fatalf("buffered decode ran in %d runs, want 1", runs)
	}

	// Through the handler: the response ends prefill + n·tt after the
	// request arrives.
	h, req, prefill := chatOn(t, n)
	clock := h.b.cfg.Clock
	start := clock.Now()
	rec := serve(h, chatRequest(t, req, nil))
	if took, want := clock.Since(start), prefill+n*tokenTime(); took != want {
		t.Fatalf("buffered chat took %v, want prefill %v + %d tokens = %v", took, prefill, n, want)
	}
	resp, err := ir.OpenAICodec{}.DecodeResponse(ir.FamilyChat, rec.Body.Bytes())
	if rec.Code != http.StatusOK || err != nil {
		t.Fatalf("status %d (%v): %s", rec.Code, err, rec.Body)
	}
	if got := resp.Chat.Usage.CompletionTokens; got != n {
		t.Fatalf("completion tokens = %d, want %d", got, n)
	}

	// One run arms one timer, at its end; a stream arms one per token.
	for _, c := range []struct {
		flush bool
		want  int
	}{{false, 1}, {true, n}} {
		deadlines := timerDeadlines(t, func(h *handler) error {
			return h.decode(context.Background(), decodePrompt, decodeSeed, n, c.flush, func(string) error { return nil })
		})
		if len(deadlines) != c.want {
			t.Fatalf("flush=%v: decode armed %d timers, want %d", c.flush, len(deadlines), c.want)
		}
		if end := deadlines[len(deadlines)-1]; end != n*tokenTime() {
			t.Fatalf("flush=%v: last timer at %v, want %d tokens", c.flush, end, n)
		}
	}
}

// timerDeadlines runs decode on a recordingClock and returns the
// offsets from the start of the timers it armed.
func timerDeadlines(t *testing.T, decode func(h *handler) error) []time.Duration {
	t.Helper()
	clock := &recordingClock{now: testEpoch}
	if err := decode(readyHandler(t, clock)); err != nil {
		t.Fatal(err)
	}
	return clock.deadlines
}

// recordingClock is a Clock whose timers fire at once: each one moves
// its time to the timer's deadline and records the deadline. A gate of
// it falls back to After, so a decode on it runs straight through.
type recordingClock struct {
	mu        sync.Mutex
	now       time.Time
	deadlines []time.Duration
}

func (c *recordingClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *recordingClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *recordingClock) Sleep(d time.Duration) { <-c.After(d) }

func (c *recordingClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
		c.deadlines = append(c.deadlines, c.now.Sub(testEpoch))
	}
	ch := make(chan time.Time, 1)
	ch <- c.now
	return ch
}

// TestDecodeRunFreeze: a freeze strictly inside token k stalls the
// decode after token k, and the decode resumes on Resume at the same
// instants the per-token loop gives, buffered or streamed. A freeze
// exactly on the boundary after token k finds token k+1 started, as one
// strictly inside token k+1 would: the run passed the gate there.
func TestDecodeRunFreeze(t *testing.T) {
	const n, k = 16, 5
	tt := tokenTime()
	resume := (k+7)*tt + tt/4
	inside := freezeAt((k-1)*tt+tt/3, resume)
	for _, flush := range []bool{false, true} {
		got := runScenario(t, runLoop, n, flush, inside)
		ref := runScenario(t, perToken, n, flush, inside)
		if flush {
			sameTrace(t, got, ref)
			continue
		}
		if runs := runEnds(t, got, ref); runs != 2 {
			t.Fatalf("frozen buffered decode ran in %d runs, want 2", runs)
		}
		if got.emits[k-1] != k*tt || got.emits[k] == k*tt {
			t.Fatalf("decode did not stall after token %d: emits %v", k, got.emits)
		}
	}

	onBoundary := runScenario(t, runLoop, n, false, freezeAt(k*tt, resume+tt))
	nextToken := runScenario(t, perToken, n, false, freezeAt(k*tt+tt/2, resume+tt))
	runEnds(t, onBoundary, nextToken)
	if onBoundary.emits[k] != (k+1)*tt {
		t.Fatalf("freeze on the boundary after token %d: token %d at %v, want %v",
			k, k+1, onBoundary.emits[k], (k+1)*tt)
	}
}

// TestDecodeRunCancel: a client cancel inside token k returns the
// handler at token k's boundary, as the per-token loop does, and the
// engine's in-flight count drops at that instant.
func TestDecodeRunCancel(t *testing.T) {
	const n, k = 32, 9
	tt := tokenTime()
	cancelAt := func(h *handler, cancel func()) {
		h.b.cfg.Clock.Sleep((k-1)*tt + tt/2)
		cancel()
	}
	got := runScenario(t, runLoop, n, false, cancelAt)
	ref := runScenario(t, perToken, n, false, cancelAt)
	if got.ret != k*tt || ref.ret != k*tt || got.err == nil {
		t.Fatalf("cancelled decode returned at %v (err %v), per-token loop at %v; want token %d's end %v",
			got.ret, got.err, ref.ret, k, k*tt)
	}

	h, req, prefill := chatOn(t, n)
	clock := h.b.cfg.Clock
	boundary := prefill + k*tt
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hr := chatRequest(t, req, ctx)
	start := clock.Now()
	var returned time.Duration
	var activeBefore, activeAfter int32
	g := simclock.NewGroup(clock)
	g.Go(func() {
		serve(h, hr)
		returned = clock.Since(start)
		activeAfter = h.b.active.Load()
	})
	g.Go(func() {
		clock.Sleep(prefill + (k-1)*tt + tt/2)
		cancel()
		clock.Sleep(boundary - clock.Since(start) - 1)
		activeBefore = h.b.active.Load()
	})
	g.Wait()
	if returned != boundary {
		t.Fatalf("cancelled handler returned at %v, want token %d's end %v", returned, k, boundary)
	}
	if activeBefore != 1 || activeAfter != 0 {
		t.Fatalf("in-flight count %d just before token %d's end and %d at it, want 1 and 0", activeBefore, k, activeAfter)
	}
}

// TestDecodeRunStreamFrames: a stream still flushes one frame per
// token, each at its token's instant in the per-token schedule.
func TestDecodeRunStreamFrames(t *testing.T) {
	const n = 12
	ref := runScenario(t, perToken, n, true, nil)

	h, req, prefill := chatOn(t, n)
	req.Stream = true
	clock := h.b.cfg.Clock
	start := clock.Now()
	w := &flushClock{ResponseRecorder: httptest.NewRecorder(), clock: clock, start: start}
	h.b.handlerWith(nil).ServeHTTP(w, chatRequest(t, req, nil))
	// The role preamble, one frame per token, then the finish frame.
	if len(w.flushes) != n+2 {
		t.Fatalf("stream flushed %d frames, want %d", len(w.flushes), n+2)
	}
	if w.flushes[0] != prefill {
		t.Fatalf("preamble at %v, want the end of prefill %v", w.flushes[0], prefill)
	}
	for j, at := range w.flushes[1 : n+1] {
		if at != prefill+ref.emits[j] {
			t.Fatalf("token %d's frame at %v, per-token loop at %v", j+1, at, prefill+ref.emits[j])
		}
	}
	if frames := strings.Count(w.Body.String(), "data: "); frames != n+3 {
		t.Fatalf("stream body has %d data frames, want %d (with [DONE])", frames, n+3)
	}
}

// flushClock records the instant of each flush, as an offset from start.
type flushClock struct {
	*httptest.ResponseRecorder
	clock   simclock.Clock
	start   time.Time
	flushes []time.Duration
}

// Flush implements http.Flusher.
func (w *flushClock) Flush() {
	w.flushes = append(w.flushes, w.clock.Since(w.start))
	w.ResponseRecorder.Flush()
}

// chatRequest encodes req as a chat request on ctx (nil for none).
func chatRequest(t *testing.T, req *ir.ChatCompletionRequest, ctx context.Context) *http.Request {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/chat/completions", bytes.NewReader(body))
	if ctx != nil {
		r = r.WithContext(ctx)
	}
	return r
}

// serve runs r through h's HTTP interface on the calling goroutine.
func serve(h *handler, r *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.b.handlerWith(nil).ServeHTTP(rec, r)
	return rec
}
