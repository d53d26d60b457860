package cudackpt

import (
	"context"
	"errors"
	"testing"

	"swapservellm/internal/perfmodel"
)

// Context cancellation tests: a ctx cancelled mid-transfer aborts at the
// next chunk boundary exactly like an injected chunk fault — the
// accounting rolls back, the state machine returns to where it started,
// and a retry with a fresh ctx succeeds.

func TestCheckpointCanceledBetweenChunks(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	if err := dev.Alloc("p", 6*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p", dev, perfmodel.EngineOllama, gib); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var committed int
	d.OnChunk(func(ev ChunkEvent) {
		if ev.Dir == perfmodel.DirD2H {
			committed++
			if committed == 2 {
				cancel()
			}
		}
	})
	_, err := d.Suspend(ctx, "p")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Suspend = %v, want context.Canceled", err)
	}
	if committed >= 6 {
		t.Fatalf("all %d chunks committed; cancellation never took effect", committed)
	}
	if st, _ := d.State("p"); st != StateRunning {
		t.Fatalf("state after cancelled checkpoint = %v, want running", st)
	}
	if got := dev.OwnerUsage("p"); got != 6*gib {
		t.Fatalf("device bytes after rollback = %d, want %d", got, 6*gib)
	}
	if d.HostUsed() != 0 || d.HostPledged() != 0 {
		t.Fatalf("host accounting leaked: used=%d pledged=%d", d.HostUsed(), d.HostPledged())
	}
	if img, _ := d.ImageBytes("p"); img != 0 {
		t.Fatalf("image after rollback = %d, want 0", img)
	}
	// The cancellation is not sticky: a fresh ctx suspends cleanly.
	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatalf("Suspend retry after cancel: %v", err)
	}
	if st, _ := d.State("p"); st != StateCheckpointed {
		t.Fatalf("state after retry = %v, want checkpointed", st)
	}
}

func TestRestoreCanceledBetweenChunks(t *testing.T) {
	d, dev, _ := newDriver(t, 0)
	if err := dev.Alloc("p", 6*gib); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("p", dev, perfmodel.EngineOllama, gib); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Suspend(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var committed int
	d.OnChunk(func(ev ChunkEvent) {
		if ev.Dir == perfmodel.DirH2D {
			committed++
			if committed == 2 {
				cancel()
			}
		}
	})
	err := d.Resume(ctx, "p", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Resume = %v, want context.Canceled", err)
	}
	if st, _ := d.State("p"); st != StateCheckpointed {
		t.Fatalf("state after cancelled restore = %v, want checkpointed", st)
	}
	if img, _ := d.ImageBytes("p"); img != 6*gib {
		t.Fatalf("image after rollback = %d, want %d", img, 6*gib)
	}
	if got := dev.OwnerUsage("p"); got != 0 {
		t.Fatalf("device bytes after rollback = %d, want 0", got)
	}
	if d.HostUsed() != 6*gib {
		t.Fatalf("host used after rollback = %d, want %d", d.HostUsed(), 6*gib)
	}
	// The image survives the abort and restores under a live ctx.
	if err := d.Resume(context.Background(), "p", nil); err != nil {
		t.Fatalf("Resume retry after cancel: %v", err)
	}
	if st, _ := d.State("p"); st != StateRunning {
		t.Fatalf("state after retry = %v, want running", st)
	}
}
