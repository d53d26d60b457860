package gpu

import (
	"fmt"

	"swapservellm/internal/perfmodel"
)

// Topology is the set of GPUs in one server, as defined for each inference
// backend during initialization (§6, Multi-GPU Orchestration).
type Topology struct {
	devices []*Device
}

// NewTopology builds a topology of count identical devices.
func NewTopology(kind perfmodel.GPUKind, count int, bytesPerDevice int64) *Topology {
	if count <= 0 {
		panic("gpu: topology needs at least one device")
	}
	t := &Topology{devices: make([]*Device, count)}
	for i := range t.devices {
		t.devices[i] = NewDevice(i, kind, bytesPerDevice)
	}
	return t
}

// FromTestbed builds the topology described by a perfmodel testbed profile.
func FromTestbed(tb perfmodel.Testbed) *Topology {
	return NewTopology(tb.GPU, tb.GPUCount, tb.GPUMemBytes)
}

// Device returns the device with index id.
func (t *Topology) Device(id int) (*Device, error) {
	if id < 0 || id >= len(t.devices) {
		return nil, fmt.Errorf("gpu: no device %d in topology of %d", id, len(t.devices))
	}
	return t.devices[id], nil
}

// Devices returns all devices in index order. The set is fixed at
// construction and the slice is shared: callers must not modify it.
func (t *Topology) Devices() []*Device { return t.devices }

// Len returns the number of devices.
func (t *Topology) Len() int { return len(t.devices) }

// TotalFree returns the sum of free bytes across all devices.
func (t *Topology) TotalFree() int64 {
	var free int64
	for _, d := range t.devices {
		free += d.Free()
	}
	return free
}

// Monitor is an NVML-style sampler over a topology: the GPU monitor of
// §3.1 that the task manager uses to observe memory utilization and inform
// scheduling decisions.
type Monitor struct {
	topo *Topology
}

// NewMonitor returns a monitor over topo.
func NewMonitor(topo *Topology) *Monitor { return &Monitor{topo: topo} }

// Sample returns per-device statistics in device order.
func (m *Monitor) Sample() []Stats {
	out := make([]Stats, 0, m.topo.Len())
	for _, d := range m.topo.Devices() {
		out = append(out, d.Stats())
	}
	return out
}

// FreeBytes returns the free bytes on device id, or an error for an
// unknown device.
func (m *Monitor) FreeBytes(id int) (int64, error) {
	d, err := m.topo.Device(id)
	if err != nil {
		return 0, err
	}
	return d.Free(), nil
}
