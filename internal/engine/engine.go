// Package engine implements the four simulated inference engines that
// SwapServeLLM integrates (§4): vLLM, Ollama, SGLang, and TensorRT-LLM.
// Each engine reproduces the initialization phases, GPU memory behaviour,
// and serving characteristics that the paper measures — weight loading
// from a storage tier, torch.compile and CUDA-graph capture phases,
// KV-cache reservation policy, OpenAI-compatible HTTP serving with
// autoregressive decoding, and engine-specific features such as vLLM's
// sleep mode and Ollama's llama.cpp runner scheduler.
package engine

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"swapservellm/internal/gpu"
	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
	"swapservellm/internal/simclock"
	"swapservellm/internal/storage"
)

// State is an engine's lifecycle state.
type State int32

// Engine states.
const (
	StateCreated State = iota
	StateInitializing
	StateReady
	StateSleeping // vLLM sleep mode: weights offloaded to host
	StateStopped
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateInitializing:
		return "initializing"
	case StateReady:
		return "ready"
	case StateSleeping:
		return "sleeping"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Errors returned by engines.
var (
	ErrNotReady   = errors.New("engine: not ready")
	ErrStopped    = errors.New("engine: stopped")
	ErrBadRequest = errors.New("engine: bad request")
)

// Config parameterizes an engine instance.
type Config struct {
	// Owner is the GPU-allocation owner identity, conventionally the
	// container ID the engine runs in.
	Owner string
	// Model is the model this engine instance serves.
	Model models.Model
	// Testbed supplies the calibrated performance model.
	Testbed perfmodel.Testbed
	// Clock is the simulation clock.
	Clock simclock.Clock
	// Device is the GPU the engine allocates on (the first shard for
	// tensor-parallel configurations).
	Device *gpu.Device
	// Devices, when set, is the tensor-parallel topology: weights and
	// KV pools are split evenly across the listed GPUs (§6, Multi-GPU
	// Orchestration). Defaults to [Device].
	Devices []*gpu.Device
	// Store holds the model weights; when nil the load phase is timed
	// analytically from Tier.
	Store *storage.ModelStore
	// Tier is the storage tier weights are read from (default disk).
	Tier perfmodel.StorageTier
	// GPUMemoryUtilization is the fraction of device memory preallocated
	// by engines with pooled KV caches (vLLM/SGLang/TensorRT-LLM).
	// Zero selects the engine's default.
	GPUMemoryUtilization float64
	// ContextTokens sizes the KV cache for engines that allocate per
	// context (Ollama). Zero selects the engine default (2048 tokens ×
	// 4 parallel slots).
	ContextTokens int
	// InitCache, when set, shares compilation artifacts across cold
	// starts: vLLM's torch.compile cache / TensorRT-LLM engine plans. A
	// warm entry skips the compile phase.
	InitCache *InitCache
}

// validate fills defaults and rejects unusable configurations.
func (c *Config) validate() error {
	if c.Owner == "" {
		return errors.New("engine: config missing Owner")
	}
	if c.Model.Name == "" {
		return errors.New("engine: config missing Model")
	}
	if c.Clock == nil {
		return errors.New("engine: config missing Clock")
	}
	if c.Device == nil && len(c.Devices) > 0 {
		c.Device = c.Devices[0]
	}
	if c.Device == nil {
		return errors.New("engine: config missing Device")
	}
	if len(c.Devices) == 0 {
		c.Devices = []*gpu.Device{c.Device}
	}
	if c.Tier == "" {
		c.Tier = perfmodel.TierDisk
	}
	if c.ContextTokens == 0 {
		c.ContextTokens = 2048 * 4
	}
	return nil
}

// Engine is a simulated inference engine serving one model over an
// OpenAI-compatible HTTP interface.
type Engine interface {
	// Kind identifies the engine implementation.
	Kind() perfmodel.EngineKind
	// Model returns the served model.
	Model() models.Model
	// State returns the lifecycle state.
	State() State
	// Init performs the engine's cold-start initialization: loading
	// weights, compilation, graph capture, and GPU memory reservation.
	// It blocks in simulated time and returns the phase breakdown.
	Init(ctx context.Context) (perfmodel.InitBreakdown, error)
	// Handler returns the engine's HTTP interface.
	Handler() http.Handler
	// GPUBytes reports the engine's current device memory usage, summed
	// across tensor-parallel shards.
	GPUBytes() int64
	// Device returns the engine's primary GPU (the first shard).
	Device() *gpu.Device
	// Devices returns the engine's full GPU topology.
	Devices() []*gpu.Device
	// Gate is the execution gate toggled by the cgroup freezer.
	Gate() *Gate
	// Shutdown stops the engine and releases its GPU memory.
	Shutdown() error
}

// Sleeper is implemented by engines that support vLLM-style sleep mode
// (§4.2): offloading weights to host memory and discarding the KV cache
// to shrink the GPU state before a checkpoint.
type Sleeper interface {
	// Sleep enters sleep mode at the given level (1 = offload weights,
	// keep them in host RAM; 2 = discard weights entirely).
	Sleep(ctx context.Context, level int) error
	// Wake restores the engine to the ready state.
	Wake(ctx context.Context) error
}

// base carries the state shared by the four engine implementations.
type base struct {
	cfg  Config
	kind perfmodel.EngineKind

	state atomic.Int32
	gate  *Gate

	mu        sync.Mutex
	breakdown perfmodel.InitBreakdown
	active    atomic.Int32 // in-flight requests, for busy accounting
	reqSeq    atomic.Int64
}

func newBase(kind perfmodel.EngineKind, cfg Config) (*base, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &base{cfg: cfg, kind: kind, gate: NewGate()}
	b.gate.clock = cfg.Clock
	b.state.Store(int32(StateCreated))
	return b, nil
}

// Kind implements Engine.
func (b *base) Kind() perfmodel.EngineKind { return b.kind }

// Model implements Engine.
func (b *base) Model() models.Model { return b.cfg.Model }

// State implements Engine.
func (b *base) State() State { return State(b.state.Load()) }

// Gate implements Engine.
func (b *base) Gate() *Gate { return b.gate }

// GPUBytes implements Engine.
func (b *base) GPUBytes() int64 {
	var total int64
	for _, d := range b.cfg.Devices {
		total += d.OwnerUsage(b.cfg.Owner)
	}
	return total
}

// Device implements Engine.
func (b *base) Device() *gpu.Device { return b.cfg.Device }

// Devices implements Engine.
func (b *base) Devices() []*gpu.Device { return b.cfg.Devices }

// allocEach reserves bytes split evenly across the engine's shards, with
// the remainder on the first. On failure, partial allocations are rolled
// back.
func (b *base) allocEach(total int64) error {
	n := int64(len(b.cfg.Devices))
	per := total / n
	rem := total - per*n
	for i, d := range b.cfg.Devices {
		want := per
		if i == 0 {
			want += rem
		}
		if err := d.Alloc(b.cfg.Owner, want); err != nil {
			for _, prev := range b.cfg.Devices[:i] {
				prev.FreeOwner(b.cfg.Owner)
			}
			return err
		}
	}
	return nil
}

// resizeEach sets each shard's allocation to exactly perDevice bytes.
func (b *base) resizeEach(perDevice int64) error {
	for _, d := range b.cfg.Devices {
		if err := d.Resize(b.cfg.Owner, perDevice); err != nil {
			return err
		}
	}
	return nil
}

// setState transitions the lifecycle state.
func (b *base) setState(s State) { b.state.Store(int32(s)) }

// InitBreakdown returns the breakdown recorded by Init (zero before).
func (b *base) InitBreakdown() perfmodel.InitBreakdown {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.breakdown
}

// runInit executes the shared initialization sequence. The weights
// allocation lands after the load phase (split across tensor-parallel
// shards); the remaining pool (KV cache, CUDA graphs, workspace) after
// the later phases, reaching perDeviceBytes on every shard.
func (b *base) runInit(ctx context.Context, perDeviceBytes int64) (perfmodel.InitBreakdown, error) {
	if s := b.State(); s != StateCreated {
		return perfmodel.InitBreakdown{}, fmt.Errorf("engine: init from state %v", s)
	}
	b.setState(StateInitializing)
	bd := b.cfg.Testbed.EngineInit(b.kind, b.cfg.Model, b.cfg.Tier)
	// A warm compilation cache (torch.compile artifacts / TensorRT plans)
	// skips the compile phase entirely.
	if b.cfg.InitCache.Warm(b.kind, b.cfg.Model, b.cfg.Testbed.GPU) {
		bd.Compile = 0
	}

	// Phase 1: load weights (storage read + H2D). Prefer the real store so
	// tier promotion and contention are observable.
	weights := b.cfg.Model.WeightBytes()
	if b.cfg.Store != nil {
		if _, err := b.cfg.Store.Read(weightBlobName(b.cfg.Model)); err != nil {
			b.setState(StateStopped)
			return bd, fmt.Errorf("engine: reading weights: %w", err)
		}
		b.cfg.Clock.Sleep(b.cfg.Testbed.H2DTime(weights))
	} else {
		b.cfg.Clock.Sleep(bd.Load)
	}
	if err := b.allocEach(weights); err != nil {
		b.setState(StateStopped)
		return bd, fmt.Errorf("engine: allocating weights: %w", err)
	}
	if err := ctx.Err(); err != nil {
		b.abortInit()
		return bd, err
	}

	// Phases 2-4: compilation, graph capture, runtime setup.
	for _, d := range []time.Duration{bd.Compile, bd.CUDAGraph, bd.Other} {
		b.cfg.Clock.Sleep(d)
		if err := ctx.Err(); err != nil {
			b.abortInit()
			return bd, err
		}
	}

	// Final reservation: grow every shard to its steady-state footprint.
	perWeights := weights / int64(len(b.cfg.Devices))
	if perDeviceBytes < perWeights {
		perDeviceBytes = perWeights
	}
	if err := b.resizeEach(perDeviceBytes); err != nil {
		b.abortInit()
		return bd, fmt.Errorf("engine: reserving KV pool: %w", err)
	}

	b.mu.Lock()
	b.breakdown = bd
	b.mu.Unlock()
	if bd.Compile > 0 {
		b.cfg.InitCache.Record(b.kind, b.cfg.Model, b.cfg.Testbed.GPU)
	}
	b.setState(StateReady)
	return bd, nil
}

// abortInit releases partial allocations after a failed or cancelled init.
func (b *base) abortInit() {
	for _, d := range b.cfg.Devices {
		d.FreeOwner(b.cfg.Owner)
	}
	b.setState(StateStopped)
}

// Shutdown implements Engine.
func (b *base) Shutdown() error {
	if b.State() == StateStopped {
		return nil
	}
	b.setState(StateStopped)
	for _, d := range b.cfg.Devices {
		d.SetBusy(b.cfg.Owner, 0)
		d.FreeOwner(b.cfg.Owner)
	}
	return nil
}

// weightBlobName is the storage key for a model's weight file.
func weightBlobName(m models.Model) string { return m.Name + ".weights" }

// WeightBlobName exposes the storage key used for a model's weights so
// deployments can pre-populate the model store.
func WeightBlobName(m models.Model) string { return weightBlobName(m) }

// StageWeights pre-populates store with the weight blobs for the given
// models on tier, as an inference deployment's model-pull step would.
func StageWeights(store *storage.ModelStore, tier perfmodel.StorageTier, ms ...models.Model) error {
	for _, m := range ms {
		err := store.Put(weightBlobName(m), m.WeightBytes(), tier)
		if err != nil && !errors.Is(err, storage.ErrExists) {
			return err
		}
	}
	return nil
}
