// Package tpu adapts the Edge TPU simulator (internal/edgetpu) to the
// backend.Backend seam: one simulated device with one loaded compiled
// model, fault plan included. A healthy, fault-free instance is a
// zero-overhead pass-through — its InvokeBatch timing is bit-identical to
// driving the device directly.
package tpu

import (
	"time"

	"hdcedge/internal/backend"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/metrics"
	"hdcedge/internal/tensor"
)

// Name is the backend class name TPU instances report.
const Name = "tpu"

// Backend drives one simulated Edge TPU device. Not safe for concurrent
// use, like the device it wraps.
type Backend struct {
	dev *edgetpu.Device
	cm  *edgetpu.CompiledModel

	// Live telemetry handles; nil until Instrument is called.
	liveInvokes *metrics.Counter
	liveSim     *metrics.LiveHistogram

	// SetupTime is the initial LoadModel cost (model transfer plus, for
	// resident models, the parameter upload).
	SetupTime time.Duration
}

// New creates a device for cfg, loads cm, and arms the fault plan.
func New(cfg edgetpu.Config, cm *edgetpu.CompiledModel, plan edgetpu.FaultPlan) (*Backend, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	dev := edgetpu.NewDevice(cfg)
	setup, err := dev.LoadModel(cm)
	if err != nil {
		return nil, err
	}
	if err := dev.InjectFaults(plan); err != nil {
		return nil, err
	}
	return &Backend{dev: dev, cm: cm, SetupTime: setup}, nil
}

// Name implements backend.Backend.
func (b *Backend) Name() string { return Name }

// Caps implements backend.Backend.
func (b *Backend) Caps() backend.Caps {
	return backend.Caps{
		BatchCapacity: b.cm.BatchCapacity(),
		RowSliceable:  b.cm.Model.RowSliceable(),
	}
}

// Instrument streams per-invoke telemetry into reg: an attempt counter and
// a histogram of simulated invoke time for successful attempts. labels is
// an inline Prometheus label set (e.g. `worker="0",backend="tpu"`) appended
// to each metric name so a fleet of backends shares one registry without
// colliding.
func (b *Backend) Instrument(reg *metrics.Registry, labels string) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	b.liveInvokes = reg.Counter("hdc_backend_invokes_total" + suffix)
	b.liveSim = reg.Histogram("hdc_backend_invoke_sim_seconds" + suffix)
}

// observe records one invoke attempt in the live telemetry (when armed) and
// passes the result through unchanged.
func (b *Backend) observe(t backend.Timing, err error) (backend.Timing, error) {
	if b.liveInvokes != nil {
		b.liveInvokes.Inc()
		if err == nil {
			b.liveSim.Observe(t.Total())
		}
	}
	return t, err
}

// Device exposes the wrapped simulator device (for tests and fault-stat
// readers).
func (b *Backend) Device() *edgetpu.Device { return b.dev }

// CompiledModel returns the loaded compiled model.
func (b *Backend) CompiledModel() *edgetpu.CompiledModel { return b.cm }

// Input implements backend.Backend.
func (b *Backend) Input(i int) *tensor.Tensor { return b.dev.Input(i) }

// Output implements backend.Backend.
func (b *Backend) Output(i int) *tensor.Tensor { return b.dev.Output(i) }

// InvokeBatch implements backend.Backend.
func (b *Backend) InvokeBatch(rows int) (backend.Timing, error) {
	return b.observe(b.dev.InvokeBatch(rows))
}

// Reset re-loads the compiled model, clearing a reset or poisoned device
// exactly as the resilient runtime's reload path always has. The returned
// duration is the LoadModel repayment.
func (b *Backend) Reset() (time.Duration, error) {
	return b.dev.LoadModel(b.cm)
}
