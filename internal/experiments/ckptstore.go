package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/ckptstore"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/gpu"
	"swapservellm/internal/invariant"
	"swapservellm/internal/metrics"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
)

// The checkpoint-store ablation quantifies the three wins of the
// content-addressed multi-tier store (internal/ckptstore) against the
// monolithic-image baseline, per model, on the H100 testbed's Virtual
// clock (byte-identical artifacts):
//
//   - delta checkpoints: an idle model's re-swap-out skips every chunk
//     still cached from the last checkpoint, so the steady-state
//     swap-out is a near-no-op compared to the first (full) one;
//   - dedup: a second replica of a model stores zero new bytes —
//     logical-over-unique is the measured dedup ratio;
//   - restore-source selection: a demoted image restores from a peer's
//     host RAM (over the fabric) faster than from local NVMe when the
//     perfmodel says the fabric is faster, which on the H100 testbed
//     it is.

// ckptStoreDynBytes is the dynamic (KV-cache) region appended to each
// model's weights to form its checkpoint image.
const ckptStoreDynBytes = int64(2) << 30

// ckptStoreModels is the measured model set.
var ckptStoreModels = []string{
	"llama3.1:8b-fp16",
	"gemma3:12b-fp16",
	"deepseek-r1:14b-fp16",
}

// CkptStoreRow is one model's measurements.
type CkptStoreRow struct {
	Model     string
	ImageGiB  float64
	FullSec   float64 // first (cold) swap-out
	DeltaSec  float64 // idle re-swap-out, every chunk clean
	DirtySec  float64 // re-swap-out after traffic dirtied the KV region
	SpeedupX  float64 // FullSec / DeltaSec
	Dedup     float64 // logical/unique after a second replica checkpoints
	DiskSec   float64 // restore of a demoted image from local disk
	PeerSec   float64 // same restore with a peer holding the chunks in RAM
	PeerGainX float64 // DiskSec / PeerSec
}

// CkptStoreResult is the full ablation output.
type CkptStoreResult struct {
	Rows []CkptStoreRow
}

// ckptRig is a driver+store pair on a shared virtual clock.
type ckptRig struct {
	driver *cudackpt.Driver
	store  *ckptstore.Store
	dev    *gpu.Device
	reg    *metrics.Registry
}

// newCkptRig builds one node's driver+store on the rig's clock. A
// non-zero hostCap bounds the driver's logical host ledger so spill
// demotions fire.
func newCkptRig(r *rig, node string, devIdx int, hostCap int64) *ckptRig {
	reg := metrics.NewRegistry()
	d := cudackpt.NewDriver(r.clock, r.tb, hostCap)
	st := ckptstore.New(r.clock, r.tb,
		ckptstore.WithRegistry(reg), ckptstore.WithNodeID(node))
	d.AttachStore(st)
	return &ckptRig{
		driver: d,
		store:  st,
		dev:    gpu.NewDevice(devIdx, r.tb.GPU, r.tb.GPUMemBytes),
		reg:    reg,
	}
}

// registerImage registers pid's image (weights + dynamic region) on the
// node, keyed by the model's content key.
func (cr *ckptRig) registerImage(pid, ckey string, weights int64) error {
	cr.dev.Alloc(pid, weights+ckptStoreDynBytes)
	if err := cr.driver.Register(pid, cr.dev, perfmodel.EngineVLLM, weights); err != nil {
		return err
	}
	return cr.driver.SetContentKey(pid, ckey)
}

// AblationCheckpointStore measures the checkpoint-store wins per model.
func AblationCheckpointStore() (*CkptStoreResult, error) {
	catalog := models.Default()
	res := &CkptStoreResult{}
	for _, name := range ckptStoreModels {
		m := catalog.MustLookup(name)
		row, err := ckptStoreModelRow(name, m.WeightBytes())
		if err != nil {
			return nil, fmt.Errorf("ckptstore ablation %s: %w", name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ckptStoreModelRow runs the full measurement sequence for one model.
func ckptStoreModelRow(name string, weights int64) (CkptStoreRow, error) {
	r := newRig(perfmodel.H100())
	defer r.done()
	ctx := context.Background()
	image := weights + ckptStoreDynBytes
	row := CkptStoreRow{Model: name, ImageGiB: gib(image)}

	local := newCkptRig(r, "n1", 0, 0)
	if err := local.registerImage("p1", name, weights); err != nil {
		return row, err
	}

	// Full (cold) swap-out: every chunk crosses PCIe.
	t0 := r.clock.Now()
	if _, err := local.driver.Suspend(ctx, "p1"); err != nil {
		return row, err
	}
	row.FullSec = r.clock.Since(t0).Seconds()

	// Idle delta re-swap-out: the restore releases the manifest but the
	// chunk payloads stay cached, so the re-checkpoint skips every copy.
	if err := local.driver.Resume(ctx, "p1", nil); err != nil {
		return row, err
	}
	t1 := r.clock.Now()
	if _, err := local.driver.Suspend(ctx, "p1"); err != nil {
		return row, err
	}
	row.DeltaSec = r.clock.Since(t1).Seconds()
	if row.DeltaSec > 0 {
		row.SpeedupX = row.FullSec / row.DeltaSec
	}

	// Dedup: a second replica of the same model checkpoints into the
	// same chunks — logical doubles, unique does not.
	if err := local.registerImage("p2", name, weights); err != nil {
		return row, err
	}
	if _, err := local.driver.Suspend(ctx, "p2"); err != nil {
		return row, err
	}
	row.Dedup = local.store.Stats().DedupRatio()

	// Dirty re-swap-out: traffic re-keys the dynamic region; only those
	// chunks transfer.
	if err := local.driver.Resume(ctx, "p1", nil); err != nil {
		return row, err
	}
	local.driver.MarkDirty("p1")
	t2 := r.clock.Now()
	if _, err := local.driver.Suspend(ctx, "p1"); err != nil {
		return row, err
	}
	row.DirtySec = r.clock.Since(t2).Seconds()

	// Restore-source arms, each on a fresh single-image node so the
	// measured restore moves the whole image (no chunks shared with a
	// hot replica).
	disk, err := ckptStoreRestoreArm(r, name, weights, false)
	if err != nil {
		return row, err
	}
	row.DiskSec = disk.Seconds()
	peer, err := ckptStoreRestoreArm(r, name, weights, true)
	if err != nil {
		return row, err
	}
	row.PeerSec = peer.Seconds()
	if row.PeerSec > 0 {
		row.PeerGainX = row.DiskSec / row.PeerSec
	}
	return row, nil
}

// ckptStoreRestoreArm checkpoints one image, demotes it to local disk,
// and measures the restore — optionally with a peer node whose store
// holds every chunk hot in host RAM, which the restore planner then
// prefers over the local NVMe read.
func ckptStoreRestoreArm(r *rig, name string, weights int64, withPeer bool) (time.Duration, error) {
	ctx := context.Background()
	local := newCkptRig(r, "arm-local", 2, 0)
	if withPeer {
		peer := newCkptRig(r, "arm-peer", 3, 0)
		if err := peer.registerImage("p1", name, weights); err != nil {
			return 0, err
		}
		// The peer's checkpoint leaves the shared-content chunks hot in
		// its host RAM.
		if _, err := peer.driver.Suspend(ctx, "p1"); err != nil {
			return 0, err
		}
		local.store.SetPeers([]ckptstore.Peer{peer.store})
	}
	if err := local.registerImage("p1", name, weights); err != nil {
		return 0, err
	}
	if _, err := local.driver.Suspend(ctx, "p1"); err != nil {
		return 0, err
	}
	if err := local.driver.Demote(ctx, "p1"); err != nil {
		return 0, err
	}
	t0 := r.clock.Now()
	if err := local.driver.Resume(ctx, "p1", nil); err != nil {
		return 0, err
	}
	return r.clock.Since(t0), nil
}

// PrintCkptStore renders the ablation table.
func PrintCkptStore(w io.Writer, res *CkptStoreResult) {
	fprintf(w, "Checkpoint store: delta re-swap, dedup, and restore-source selection (H100)\n")
	fprintf(w, "%-24s %9s %9s %9s %9s %8s %7s %9s %9s %8s\n",
		"model", "image_gib", "full_s", "delta_s", "dirty_s", "delta_x", "dedup", "disk_s", "peer_s", "peer_x")
	for _, r := range res.Rows {
		fprintf(w, "%-24s %9.1f %9.3f %9.3f %9.3f %8.1f %7.2f %9.3f %9.3f %8.2f\n",
			r.Model, r.ImageGiB, r.FullSec, r.DeltaSec, r.DirtySec, r.SpeedupX, r.Dedup, r.DiskSec, r.PeerSec, r.PeerGainX)
	}
	fprintf(w, "delta_x: full over idle re-swap-out; peer_x: local-disk over peer-RAM restore.\n")
}

// CkptStoreCSV renders the rows as CSV lines.
func CkptStoreCSV(res *CkptStoreResult) (header string, out []string) {
	header = "model,image_gib,full_s,delta_s,dirty_s,delta_speedup_x,dedup_ratio,disk_restore_s,peer_restore_s,peer_speedup_x"
	for _, r := range res.Rows {
		out = append(out, fmt.Sprintf("%s,%.1f,%.4f,%.4f,%.4f,%.2f,%.3f,%.4f,%.4f,%.3f",
			r.Model, r.ImageGiB, r.FullSec, r.DeltaSec, r.DirtySec, r.SpeedupX, r.Dedup, r.DiskSec, r.PeerSec, r.PeerGainX))
	}
	return header, out
}

// CkptStoreBenchJSON renders the committed BENCH_ckptstore.json
// artifact. Formatting is fixed-precision so the bytes are stable run
// to run.
func CkptStoreBenchJSON(res *CkptStoreResult) string {
	out := "{\n"
	out += "  \"benchmark\": \"AblationCheckpointStore\",\n"
	out += "  \"description\": \"Content-addressed multi-tier checkpoint store on the H100 testbed: first (full) vs idle delta vs dirty re-swap-out latency, replica dedup ratio, and restore of a disk-demoted image from local NVMe vs a peer node's host RAM over the fabric. Virtual clock; byte-identical.\",\n"
	out += "  \"testbed\": \"h100\",\n"
	out += "  \"command\": \"go run ./cmd/swapbench -exp ckptstore\",\n"
	out += "  \"rows\": [\n"
	out += jsonList(res.Rows, func(r CkptStoreRow) string {
		return fmt.Sprintf("{\"model\": %q, \"image_gib\": %.1f, \"full_swap_out_s\": %.4f, \"delta_swap_out_s\": %.4f, \"dirty_swap_out_s\": %.4f, \"delta_speedup_x\": %.2f, \"dedup_ratio\": %.3f, \"local_disk_restore_s\": %.4f, \"peer_ram_restore_s\": %.4f, \"peer_speedup_x\": %.3f}",
			r.Model, r.ImageGiB, r.FullSec, r.DeltaSec, r.DirtySec, r.SpeedupX, r.Dedup, r.DiskSec, r.PeerSec, r.PeerGainX)
	})
	out += "  ]\n}\n"
	return out
}

// CkptStoreChaosRules is the checkpoint-store soak schedule: heavy
// fault rates on chunk fetches and promotions (forcing the
// bounded-retry fallback to the next-best source), plus the driver's
// usual lossy transfer chunks.
const CkptStoreChaosRules = "ckptstore.fetch: p=0.35" +
	"; ckptstore.promote: p=0.35" +
	"; cudackpt.chunk: p=0.02" +
	"; cudackpt.pcie: p=0.2 delay=25ms"

// ckptSoakOps is the operation count of one checkpoint-store soak trial.
const ckptSoakOps = 40

// ChaosCkptStoreSoak runs one seeded checkpoint-store trial: two
// replicas of one model plus an unrelated model cycle through
// suspend/resume/demote/promote on a spill-capped driver while fetch
// and promote faults fire; a peer node's hot store is wired in so the
// fallback ladder always has a further rung. After every operation the
// store self-checks and the driver's conservation invariants are
// audited; failed operations are retried a bounded number of times.
func ChaosCkptStoreSoak(seed int64) (ChaosRow, error) {
	r := newRig(perfmodel.H100())
	defer r.done()
	ctx := context.Background()
	const model = "llama3.1:8b-fp16"
	weights := models.Default().MustLookup(model).WeightBytes()

	topo := gpu.NewTopology(r.tb.GPU, 1, r.tb.GPUMemBytes)
	// The spill cap holds two images but not three, so checkpoints
	// regularly demote a victim by chunk reference.
	localCap := 2*(weights+ckptStoreDynBytes) + ckptStoreDynBytes
	local := newCkptRig(r, "soak-local", 0, localCap)

	peer := newCkptRig(r, "soak-peer", 1, 0)
	if err := peer.registerImage("pp", model, weights); err != nil {
		return ChaosRow{}, err
	}
	if _, err := peer.driver.Suspend(ctx, "pp"); err != nil {
		return ChaosRow{}, err
	}
	local.store.SetPeers([]ckptstore.Peer{peer.store})

	pids := []string{"a0", "a1", "b0"}
	for _, pid := range pids[:2] {
		if err := local.registerImage(pid, model, weights); err != nil {
			return ChaosRow{}, err
		}
	}
	if err := local.registerImage("b0", "other-model", weights); err != nil {
		return ChaosRow{}, err
	}

	inj := chaos.NewInjector(chaos.MustParsePlan(CkptStoreChaosRules).WithSeed(seed))
	local.driver.SetChaos(inj)
	local.store.SetChaos(inj)

	tally := newSoakTally("ckptstore", seed, r.clock)
	var rep invariant.Report
	audit := func() {
		if err := local.store.SelfCheck(); err != nil {
			rep.Addf("ckptstore.selfcheck", "store", "%v", err)
		}
		invariant.CheckDriver(&rep, local.driver, topo)
	}

	// suspended tracks which images are currently checkpointed, so every
	// generated operation is legal and failures can only come from the
	// fault schedule.
	suspended := map[string]bool{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ckptSoakOps; i++ {
		pid := pids[rng.Intn(len(pids))]
		var op func() error
		if !suspended[pid] {
			op = func() error { _, err := local.driver.Suspend(ctx, pid); return err }
		} else {
			switch rng.Intn(3) {
			case 0:
				op = func() error { return local.driver.Resume(ctx, pid, nil) }
			case 1:
				op = func() error { return local.driver.Demote(ctx, pid) }
			default:
				op = func() error { return local.driver.Promote(ctx, pid) }
			}
		}
		tally.request(fmt.Sprintf("op-%d", i), func() error {
			// A capacity-refused promote is the spill cap working as
			// designed, not a fault — legal refusal, no retry.
			if err := op(); !errors.Is(err, cudackpt.ErrHostMemory) {
				return err
			}
			return nil
		}, op)
		audit()
		// Refresh the state map from the driver, not the op outcome: a
		// failed promote leaves the image checkpointed on disk, a failed
		// suspend rolls back to running.
		if st, serr := local.driver.State(pid); serr == nil {
			suspended[pid] = st == cudackpt.StateCheckpointed
		}
	}
	audit()
	return tally.finish(&rep, inj), nil
}
