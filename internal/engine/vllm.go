package engine

import (
	"context"
	"fmt"
	"net/http"

	"swapservellm/internal/perfmodel"
	"swapservellm/internal/proxy/ir"
)

// VLLM simulates the vLLM engine: PagedAttention-style pooled KV cache
// (preallocating gpu_memory_utilization of device memory — the reason
// Figure 6a's backends occupy 72–73 GB), torch.compile and CUDA-graph
// capture during initialization (Table 1), and the sleep-mode API that
// SwapServeLLM uses to shrink checkpoints (§4.2).
type VLLM struct {
	*base
	sleepLevel int
}

// DefaultVLLMMemoryUtilization mirrors vLLM's gpu_memory_utilization
// default.
const DefaultVLLMMemoryUtilization = 0.9

// NewVLLM constructs a vLLM engine instance.
func NewVLLM(cfg Config) (*VLLM, error) {
	if cfg.GPUMemoryUtilization == 0 {
		cfg.GPUMemoryUtilization = DefaultVLLMMemoryUtilization
	}
	b, err := newBase(perfmodel.EngineVLLM, cfg)
	if err != nil {
		return nil, err
	}
	return &VLLM{base: b}, nil
}

// poolBytes is the steady-state device footprint: the configured fraction
// of total device memory.
func (v *VLLM) poolBytes() int64 {
	return int64(v.cfg.GPUMemoryUtilization * float64(v.cfg.Device.Total()))
}

// Init implements Engine.
func (v *VLLM) Init(ctx context.Context) (perfmodel.InitBreakdown, error) {
	return v.runInit(ctx, v.poolBytes())
}

// Handler implements Engine, adding vLLM's sleep-mode endpoints.
func (v *VLLM) Handler() http.Handler {
	return v.handlerWith(func(mux *http.ServeMux) {
		mux.HandleFunc("/sleep", func(w http.ResponseWriter, r *http.Request) {
			level := 1
			if l := r.URL.Query().Get("level"); l == "2" {
				level = 2
			}
			if err := v.Sleep(r.Context(), level); err != nil {
				ir.WriteError(w, http.StatusConflict, "sleep_failed", err.Error())
				return
			}
			w.WriteHeader(http.StatusOK)
		})
		mux.HandleFunc("/wake_up", func(w http.ResponseWriter, r *http.Request) {
			if err := v.Wake(r.Context()); err != nil {
				ir.WriteError(w, http.StatusConflict, "wake_failed", err.Error())
				return
			}
			w.WriteHeader(http.StatusOK)
		})
	})
}

// sleepResidualBytes is what stays on the device in sleep mode: the CUDA
// context and captured graphs.
const sleepResidualBytes = int64(768) << 20

// Sleep implements Sleeper. Level 1 offloads the weights to host memory
// (a D2H copy); level 2 discards them entirely. Both discard the KV-cache
// pool, shrinking the GPU state ahead of a checkpoint.
func (v *VLLM) Sleep(ctx context.Context, level int) error {
	if level != 1 && level != 2 {
		return fmt.Errorf("vllm: invalid sleep level %d", level)
	}
	if s := v.State(); s != StateReady {
		return fmt.Errorf("vllm: sleep from state %v", s)
	}
	if level == 1 {
		// Offload weights over PCIe.
		v.cfg.Clock.Sleep(v.cfg.Testbed.D2HTime(v.cfg.Model.WeightBytes()))
	}
	if err := v.resizeEach(sleepResidualBytes); err != nil {
		return err
	}
	v.sleepLevel = level
	v.setState(StateSleeping)
	return nil
}

// Wake implements Sleeper: weights return to the device and the KV pool
// is re-reserved. Fails if another tenant claimed the memory meanwhile.
func (v *VLLM) Wake(ctx context.Context) error {
	if s := v.State(); s != StateSleeping {
		return fmt.Errorf("vllm: wake from state %v", s)
	}
	w := v.cfg.Model.WeightBytes()
	if err := v.resizeEach(v.poolBytes()); err != nil {
		return err
	}
	switch v.sleepLevel {
	case 1:
		v.cfg.Clock.Sleep(v.cfg.Testbed.H2DTime(w))
	case 2:
		// Discarded weights must be re-read from storage.
		if v.cfg.Store != nil {
			if _, err := v.cfg.Store.Read(weightBlobName(v.cfg.Model)); err != nil {
				return err
			}
		} else {
			v.cfg.Clock.Sleep(v.cfg.Testbed.StorageReadTime(v.cfg.Tier, w))
		}
		v.cfg.Clock.Sleep(v.cfg.Testbed.H2DTime(w))
	}
	v.sleepLevel = 0
	v.setState(StateReady)
	return nil
}

var _ Engine = (*VLLM)(nil)
var _ Sleeper = (*VLLM)(nil)
