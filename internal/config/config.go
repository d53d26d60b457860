// Package config defines SwapServeLLM's deployment configuration: global
// runtime parameters and the per-model backend list (§3.2). Configurations
// load from JSON, are validated against the model catalog, and carry the
// global/local parameter split the paper describes (engine-wide options
// such as response timeout and queue depth vs model-specific options
// such as container image and GPU memory utilization). Unknown keys are
// errors, so a key this package no longer carries is reported by name.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"swapservellm/internal/models"
	"swapservellm/internal/perfmodel"
)

// Global holds engine-wide parameters shared by every backend.
type Global struct {
	// ResponseTimeoutSec bounds how long a queued request may wait for its
	// backend, in simulated seconds. Zero means no timeout.
	ResponseTimeoutSec float64 `json:"response_timeout_sec"`
	// QueueCapacity is the default per-backend request queue depth.
	QueueCapacity int `json:"queue_capacity"`
	// AuthToken, when set, must be presented as a Bearer token.
	AuthToken string `json:"auth_token"`
	// UseSleepMode enables the vLLM sleep-mode fast path during swap-out
	// (§4.2).
	UseSleepMode bool `json:"use_sleep_mode"`
	// KeepAliveSec proactively swaps out backends idle for this many
	// simulated seconds (0 disables the idle reaper). Generalizes
	// Ollama's keep_alive to every engine.
	KeepAliveSec float64 `json:"keep_alive_sec"`
	// SnapshotHostCapGiB bounds the host memory available for checkpoint
	// images (0 = unlimited). A checkpoint that would exceed it spills
	// least-recently-used images to disk. The paper's H100 testbed has
	// 221 GB RAM.
	SnapshotHostCapGiB float64 `json:"snapshot_host_cap_gib"`
	// CkptStore enables the content-addressed checkpoint store: images
	// decompose into deduplicated chunks, re-checkpoints write deltas
	// only, spills demote by chunk reference, and restores fetch each
	// chunk from the cheapest tier (local RAM, peer RAM, local disk,
	// peer disk).
	CkptStore bool `json:"ckpt_store"`
	// Prefetch enables the predictive prefetcher: backends whose next
	// request is expected within their swap-in latency are proactively
	// swapped in (§2.1's workload-metric autoscaling).
	Prefetch bool `json:"prefetch"`
	// GPUMonitorSec samples GPU memory/utilization series every this many
	// simulated seconds (0 disables the monitor loop). §3.2's continuous
	// GPU monitoring.
	GPUMonitorSec float64 `json:"gpu_monitor_sec"`
	// PipelinedSwap selects the full-duplex swap-exchange fast path: a
	// target's restore starts as soon as the victim's checkpoint frees
	// its first chunks, instead of after the checkpoint completes. Off
	// by default so the sequential baseline remains selectable for A/B.
	PipelinedSwap bool `json:"pipelined_swap"`
	// StorageTier is the default tier model weights are read from.
	StorageTier string `json:"storage_tier"`
}

// Model configures one backend: a (model, engine) pair served from its own
// container.
type Model struct {
	// Name is the catalog model name, e.g. "deepseek-r1:14b-fp16".
	Name string `json:"name"`
	// Engine selects the backend engine: vllm, ollama, sglang, trtllm.
	Engine string `json:"engine"`
	// Image is the container image reference.
	Image string `json:"image"`
	// GPUMemoryUtilization overrides the engine's pooled-memory fraction.
	GPUMemoryUtilization float64 `json:"gpu_memory_utilization,omitempty"`
	// GPUs lists the device indices the backend spans (tensor parallel
	// when more than one). Defaults to [0].
	GPUs []int `json:"gpus,omitempty"`
	// InitTimeoutSec bounds engine initialization in simulated seconds.
	InitTimeoutSec float64 `json:"init_timeout_sec,omitempty"`
	// KeepWarm leaves the backend running after initialization instead of
	// snapshotting and pausing it.
	KeepWarm bool `json:"keep_warm,omitempty"`
	// Class assigns the model to a scheduling priority class declared in
	// the cluster's scheduling section. Empty means the default class.
	Class string `json:"class,omitempty"`
}

// Config is the full deployment configuration.
type Config struct {
	// Listen is the router's bind address, e.g. "127.0.0.1:0".
	Listen string `json:"listen"`
	// Testbed selects the hardware profile: "a100" or "h100".
	Testbed string `json:"testbed"`
	// Global parameters apply to every backend.
	Global Global `json:"global"`
	// Models lists the configured backends.
	Models []Model `json:"models"`
}

// Default returns a configuration with sensible defaults and no models.
func Default() Config {
	return Config{
		Listen:  "127.0.0.1:0",
		Testbed: "h100",
		Global: Global{
			ResponseTimeoutSec: 600,
			QueueCapacity:      64,
			StorageTier:        string(perfmodel.TierDisk),
		},
	}
}

// Parse decodes a JSON configuration, applying defaults for omitted
// fields.
func Parse(r io.Reader) (Config, error) { return decode(r, Default()) }

// Load reads and parses a configuration file.
func Load(path string) (Config, error) { return load(path, Parse) }

// decode decodes r over cfg's defaults. An unknown key is an error that
// names it.
func decode[T any](r io.Reader, cfg T) (T, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("config: parsing: %w", err)
	}
	return cfg, nil
}

// load opens path and parses it with parse.
func load[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return parse(f)
}

// Validate checks the configuration against the model catalog and the
// supported engines/testbeds (§3.2's per-model validation step).
func (c *Config) Validate(catalog *models.Catalog) error {
	if c.Listen == "" {
		return errors.New("config: listen address required")
	}
	if _, ok := perfmodel.TestbedByName(c.Testbed); !ok {
		return fmt.Errorf("config: unknown testbed %q (want a100 or h100)", c.Testbed)
	}
	if c.Global.QueueCapacity <= 0 {
		return errors.New("config: global queue_capacity must be positive")
	}
	g := &c.Global
	if err := errors.Join(
		nonNegative(&g.ResponseTimeoutSec, 0, "response_timeout_sec"),
		nonNegative(&g.KeepAliveSec, 0, "keep_alive_sec"),
		nonNegative(&g.SnapshotHostCapGiB, 0, "snapshot_host_cap_gib"),
		nonNegative(&g.GPUMonitorSec, 0, "gpu_monitor_sec"),
	); err != nil {
		return err
	}
	switch perfmodel.StorageTier(g.StorageTier) {
	case perfmodel.TierDisk, perfmodel.TierTmpfs:
	default:
		return fmt.Errorf("config: unknown storage tier %q", g.StorageTier)
	}
	if len(c.Models) == 0 {
		return errors.New("config: at least one model required")
	}
	seen := make(map[string]bool, len(c.Models))
	for i := range c.Models {
		m := &c.Models[i]
		if m.Name == "" {
			return fmt.Errorf("config: models[%d] missing name", i)
		}
		if seen[m.Name] {
			return fmt.Errorf("config: duplicate model %q", m.Name)
		}
		seen[m.Name] = true
		if _, ok := catalog.Lookup(m.Name); !ok {
			return fmt.Errorf("config: model %q not in catalog", m.Name)
		}
		if !perfmodel.EngineKind(m.Engine).Valid() {
			return fmt.Errorf("config: model %q has unsupported engine %q", m.Name, m.Engine)
		}
		if m.GPUMemoryUtilization < 0 || m.GPUMemoryUtilization > 1 {
			return fmt.Errorf("config: model %q gpu_memory_utilization must be in [0,1]", m.Name)
		}
		if len(m.GPUs) == 0 {
			m.GPUs = []int{0}
		}
		for _, g := range m.GPUs {
			if g < 0 || g >= maxGPUs {
				return fmt.Errorf("config: model %q references invalid GPU %d", m.Name, g)
			}
		}
		if m.InitTimeoutSec < 0 {
			return fmt.Errorf("config: model %q init_timeout_sec must be non-negative", m.Name)
		}
		if m.Image == "" {
			m.Image = defaultImage(perfmodel.EngineKind(m.Engine))
		}
	}
	return nil
}

// maxGPUs bounds config GPU indices; the simulated topology can be
// extended beyond the testbed's physical single GPU for multi-GPU
// experiments.
const maxGPUs = 16

// defaultImage returns the conventional container image for an engine.
func defaultImage(e perfmodel.EngineKind) string {
	switch e {
	case perfmodel.EngineVLLM:
		return "docker.io/vllm/vllm-openai:v0.9.2"
	case perfmodel.EngineOllama:
		return "docker.io/ollama/ollama:0.9.6"
	case perfmodel.EngineSGLang:
		return "docker.io/lmsysorg/sglang:v0.4.9"
	case perfmodel.EngineTRTLLM:
		return "nvcr.io/nvidia/tensorrt-llm:1.0rc0"
	default:
		return "scratch"
	}
}

// ResponseTimeout returns the global response timeout as a Duration.
func (c *Config) ResponseTimeout() time.Duration {
	return time.Duration(c.Global.ResponseTimeoutSec * float64(time.Second))
}

// SnapshotHostCapBytes returns the checkpoint host-memory cap in bytes
// (0 = unlimited).
func (g *Global) SnapshotHostCapBytes() int64 {
	return int64(g.SnapshotHostCapGiB * (1 << 30))
}

// KeepAlive returns the idle-reap window as a Duration (zero = disabled).
func (c *Config) KeepAlive() time.Duration {
	return time.Duration(c.Global.KeepAliveSec * float64(time.Second))
}

// InitTimeout returns the model's init timeout (zero when unset).
func (m *Model) InitTimeout() time.Duration {
	return time.Duration(m.InitTimeoutSec * float64(time.Second))
}
