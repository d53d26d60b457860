package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"swapservellm/internal/config"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/proxy/ir"
)

// startServer builds and starts a server from a full config, on
// virtualTestClock unless opts names a clock.
func startServer(t *testing.T, cfg config.Config, opts Options) *Server {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = virtualTestClock(t)
	}
	s, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func TestIdleReaperSwapsOutIdleBackend(t *testing.T) {
	cfg := config.Default()
	cfg.Global.KeepAliveSec = 5 // short keep-alive in simulated time
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	s := startServer(t, cfg, Options{})

	b, _ := s.Backend("llama3.2:1b-fp16")
	serverChat(t, s, "llama3.2:1b-fp16", 2)

	// Wait past the keep-alive window: the reaper must evict.
	clock := s.Clock()
	deadline := clock.Now().Add(10000 * time.Second)
	for b.State() != BackendSwappedOut {
		if clock.Now().After(deadline) {
			t.Fatalf("reaper never swapped out the idle backend (state=%v)", b.State())
		}
		clock.Sleep(4 * time.Second)
	}
	if s.Registry().Counter("idle_reaps").Value() == 0 {
		t.Fatal("idle_reaps counter not incremented")
	}
	// The backend still serves after a reap (it may be re-reaped again
	// once idle, so only the successful response is asserted).
	serverChat(t, s, "llama3.2:1b-fp16", 2)
	if in, _ := b.SwapCounts(); in < 2 {
		t.Fatalf("swap-ins = %d, want >= 2 (one per served burst)", in)
	}
}

func TestReaperSkipsKeepWarm(t *testing.T) {
	cfg := config.Default()
	cfg.Global.KeepAliveSec = 2
	m := ollamaModel("llama3.2:1b-fp16")
	m.KeepWarm = true
	cfg.Models = []config.Model{m}
	s := startServer(t, cfg, Options{})
	b, _ := s.Backend("llama3.2:1b-fp16")
	// Give the reaper several sweep windows.
	s.Clock().Sleep(60 * time.Second)
	if b.State() != BackendRunning {
		t.Fatalf("keep-warm backend was reaped: %v", b.State())
	}
}

func TestReaperSkipsBusyBackend(t *testing.T) {
	// The 14B model decodes at ~25 tokens/s, so a 255-token stream spans
	// ~10 simulated seconds — several keep-alive windows.
	cfg := config.Default()
	cfg.Global.KeepAliveSec = 2
	cfg.Models = []config.Model{ollamaModel("deepseek-r1:14b-fp16")}
	s := startServer(t, cfg, Options{})
	b, _ := s.Backend("deepseek-r1:14b-fp16")

	// The reaper must never evict mid-stream: a mid-generation eviction
	// would force a second swap-in before the stream could finish, so a
	// complete stream with exactly one swap-in proves the stream was
	// never interrupted. (Client-side state checks are invalid here: the
	// decode may finish before the client has parsed every chunk, so a
	// post-completion reap can legitimately be visible meanwhile.)
	seed := int64(1)
	var chunks int
	err := serverClient(s).ChatCompletionStream(context.Background(),
		&ir.ChatCompletionRequest{
			Model:     "deepseek-r1:14b-fp16",
			Messages:  []ir.Message{{Role: "user", Content: "long"}},
			Seed:      &seed,
			MinTokens: 255,
			MaxTokens: 255,
		}, func(*ir.ChatCompletionChunk) error {
			chunks++
			return nil
		})
	if err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if chunks < 255 {
		t.Fatalf("stream delivered %d chunks", chunks)
	}
	in, _ := b.SwapCounts()
	if in != 1 {
		t.Fatalf("swap-ins = %d: the stream was interrupted by an eviction", in)
	}
}

func TestCompletionsEndpoint(t *testing.T) {
	s := testServer(t, ollamaModel("llama3.2:1b-fp16"))
	seed := int64(11)
	resp, err := serverClient(s).Completion(context.Background(), &ir.CompletionRequest{
		Model:     "llama3.2:1b-fp16",
		Prompt:    ir.PromptField{"Once upon a time"},
		MaxTokens: 6,
		Seed:      &seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Object != "text_completion" || len(resp.Choices) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Choices[0].Text == "" || resp.Usage.CompletionTokens != 6 {
		t.Fatalf("choice = %+v usage = %+v", resp.Choices[0], resp.Usage)
	}
	// The swap-in was triggered through the completions path.
	b, _ := s.Backend("llama3.2:1b-fp16")
	if in, _ := b.SwapCounts(); in != 1 {
		t.Fatalf("swap-ins = %d", in)
	}
}

func TestCompletionsMultiPrompt(t *testing.T) {
	s := testServer(t, ollamaModel("llama3.2:1b-fp16"))
	seed := int64(2)
	resp, err := serverClient(s).Completion(context.Background(), &ir.CompletionRequest{
		Model:     "llama3.2:1b-fp16",
		Prompt:    ir.PromptField{"first prompt", "second prompt"},
		MaxTokens: 3,
		Seed:      &seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Choices) != 2 || resp.Choices[1].Index != 1 {
		t.Fatalf("choices = %+v", resp.Choices)
	}
	if resp.Usage.CompletionTokens != 6 {
		t.Fatalf("usage = %+v", resp.Usage)
	}
	if resp.Choices[0].Text == resp.Choices[1].Text {
		t.Fatal("different prompts gave identical completions")
	}
}

func TestCompletionsValidation(t *testing.T) {
	s := testServer(t, ollamaModel("llama3.2:1b-fp16"))
	_, err := serverClient(s).Completion(context.Background(), &ir.CompletionRequest{
		Model: "llama3.2:1b-fp16",
	})
	if err == nil || !strings.Contains(err.Error(), "prompt") {
		t.Fatalf("empty prompt: %v", err)
	}
}

func TestSnapshotSpillToDisk(t *testing.T) {
	// Host RAM holds one ~31 GiB snapshot but not two: checkpointing the
	// second must spill the first to disk; restoring the spilled one pays
	// the disk read but still works end-to-end.
	cfg := config.Default()
	cfg.Global.SnapshotHostCapGiB = 40
	cfg.Models = []config.Model{
		ollamaModel("deepseek-r1:14b-fp16"), // ~31 GiB snapshot
		ollamaModel("llama3.1:8b-fp16"),     // ~17.5 GiB snapshot
	}
	s := startServer(t, cfg, Options{Clock: virtualTestClock(t)})

	a, _ := s.Backend("deepseek-r1:14b-fp16")
	bb, _ := s.Backend("llama3.1:8b-fp16")
	if a.State() != BackendSwappedOut || bb.State() != BackendSwappedOut {
		t.Fatalf("states: %v %v", a.State(), bb.State())
	}
	// Both snapshots exist; one must have been spilled to disk.
	if s.driver.SpillCount() == 0 {
		t.Fatal("no snapshot was spilled despite the 40 GiB cap")
	}
	if s.driver.DiskUsed() == 0 {
		t.Fatal("disk tier holds no snapshot bytes")
	}
	locA, _ := s.driver.ImageLocation(a.Container().ID())
	if locA != cudackpt.LocDisk {
		t.Fatalf("expected the first (LRU) snapshot on disk, got %v", locA)
	}

	// Restoring the disk-resident snapshot works and costs more than the
	// RAM-resident one.
	clock := s.Clock()
	t0 := clock.Now()
	serverChat(t, s, "deepseek-r1:14b-fp16", 1)
	diskRestore := clock.Since(t0)
	if a.State() != BackendRunning {
		t.Fatalf("state = %v", a.State())
	}
	t1 := clock.Now()
	serverChat(t, s, "llama3.1:8b-fp16", 1)
	ramRestore := clock.Since(t1)
	// 14B from disk ≈ 31 GiB read at ~6-9 GiB/s + restore vs 8B from RAM.
	if diskRestore <= ramRestore {
		t.Fatalf("disk restore %v not slower than RAM restore %v", diskRestore, ramRestore)
	}
}

func TestSnapshotCapNothingToSpillFails(t *testing.T) {
	// A cap below one snapshot: the first backend's init snapshot has
	// no other image to spill, so the init sequence must fail.
	cfg := config.Default()
	cfg.Global.SnapshotHostCapGiB = 20
	cfg.Models = []config.Model{
		ollamaModel("deepseek-r1:14b-fp16"), // ~31 GiB snapshot
		ollamaModel("llama3.1:8b-fp16"),
	}
	s, err := New(cfg, Options{Clock: virtualTestClock(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if err := s.Start(context.Background()); !errors.Is(err, cudackpt.ErrHostMemory) {
		t.Fatalf("init under a cap below one snapshot: %v, want ErrHostMemory", err)
	}
}

func TestPrefetcherHidesSwapIn(t *testing.T) {
	cfg := config.Default()
	cfg.Global.Prefetch = true
	cfg.Global.KeepAliveSec = 2 // reap quickly so the cycle repeats
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	s := startServer(t, cfg, Options{})
	b, _ := s.Backend("llama3.2:1b-fp16")

	// Periodic traffic: one request every ~8 simulated seconds. After a
	// few arrivals the EWMA converges and the prefetcher should swap the
	// backend in before the next request.
	for i := 0; i < 8; i++ {
		serverChat(t, s, "llama3.2:1b-fp16", 1)
		s.Clock().Sleep(8 * time.Second)
	}
	if v := s.Registry().Counter("prefetch_swap_ins").Value(); v == 0 {
		t.Fatal("prefetcher never triggered a proactive swap-in")
	}
	_ = b
}

func TestGPUMonitorRecordsSeries(t *testing.T) {
	cfg := config.Default()
	cfg.Global.GPUMonitorSec = 2
	cfg.Models = []config.Model{ollamaModel("llama3.2:1b-fp16")}
	clock := virtualTestClock(t)
	s := startServer(t, cfg, Options{Clock: clock})
	serverChat(t, s, "llama3.2:1b-fp16", 2)
	// Let three sampling periods elapse in simulated time.
	clock.Sleep(3 * 2 * time.Second)
	if n := s.Registry().Series("gpu0_used_gib").Len(); n < 3 {
		t.Fatalf("GPU monitor recorded %d samples over three periods, want >= 3", n)
	}
	// At least one sample shows the resident backend's memory.
	var sawMemory bool
	for _, p := range s.Registry().Series("gpu0_used_gib").Points() {
		if p.V > 3 {
			sawMemory = true
			break
		}
	}
	if !sawMemory {
		t.Fatal("monitor never observed the resident backend's memory")
	}
	if s.Registry().Series("gpu0_utilization").Len() == 0 {
		t.Fatal("utilization series empty")
	}
}
