// Package hostcpu is the host-CPU execution backend: the tflite reference
// interpreter running the (typically quantized) model functionally, priced
// by the cpuarch roofline cost model. It is the promotion of the resilient
// runtime's buried host-fallback path into a first-class peer backend — the
// same engine now serves both as the degraded mode behind a faulting
// accelerator and as a standalone worker class in a heterogeneous serving
// fleet.
//
// The quantized graph is bit-exact with a healthy simulated device, so a
// CPU-served request differs from a TPU-served one in cost, never in
// answer.
package hostcpu

import (
	"fmt"
	"time"

	"hdcedge/internal/backend"
	"hdcedge/internal/cpuarch"
	"hdcedge/internal/metrics"
	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// Name is the backend class name host-CPU instances report.
const Name = "cpu"

// timeKey caches one priced invocation. Keying by (model, rows) — not rows
// alone — means a backend that reloads or swaps its model can never serve a
// stale price computed for a previous graph.
type timeKey struct {
	m    *tflite.Model
	rows int // 0 = full batch
}

// Backend runs one loaded model on the host CPU. Not safe for concurrent
// use; the interpreter's activation tensors are reused across invokes.
type Backend struct {
	host   cpuarch.Spec
	m      *tflite.Model
	interp *tflite.Interpreter
	times  map[timeKey]time.Duration

	// Live telemetry handles; nil until Instrument is called.
	liveInvokes *metrics.Counter
	liveSim     *metrics.LiveHistogram
}

// New builds an interpreter for m priced by host.
func New(host cpuarch.Spec, m *tflite.Model) (*Backend, error) {
	b := &Backend{host: host, times: make(map[timeKey]time.Duration)}
	if _, err := b.Load(m); err != nil {
		return nil, err
	}
	return b, nil
}

// Load replaces the loaded model with m, rebuilding interpreter state. The
// pricing cache is keyed per model, so entries for other models neither
// leak into m's pricing nor are lost if m is loaded again. Host setup is
// free in simulated time: there is no link to cross.
func (b *Backend) Load(m *tflite.Model) (time.Duration, error) {
	it, err := tflite.NewInterpreter(m)
	if err != nil {
		return 0, err
	}
	b.m = m
	b.interp = it
	return 0, nil
}

// Name implements backend.Backend.
func (b *Backend) Name() string { return Name }

// Caps implements backend.Backend.
func (b *Backend) Caps() backend.Caps {
	return backend.Caps{
		BatchCapacity: b.m.BatchCapacity(),
		RowSliceable:  b.m.RowSliceable(),
	}
}

// Model returns the loaded model.
func (b *Backend) Model() *tflite.Model { return b.m }

// Instrument streams per-invoke telemetry into reg: an attempt counter and
// a histogram of simulated invoke time for successful attempts. labels is
// an inline Prometheus label set (e.g. `worker="1",backend="cpu"`) appended
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

// Input implements backend.Backend.
func (b *Backend) Input(i int) *tensor.Tensor { return b.interp.Input(i) }

// Output implements backend.Backend.
func (b *Backend) Output(i int) *tensor.Tensor { return b.interp.Output(i) }

// normRows folds out-of-range row counts onto the full batch, so full
// invokes share one cache entry and exactly the unscaled arithmetic.
func (b *Backend) normRows(rows int) int {
	if rows <= 0 || rows >= b.m.BatchCapacity() {
		return 0
	}
	return rows
}

// price returns the cached simulated cost of one invoke at rows occupied
// sample rows (0 = full batch).
func (b *Backend) price(rows int) time.Duration {
	k := timeKey{m: b.m, rows: rows}
	t, ok := b.times[k]
	if !ok {
		t = ModelTimeRows(b.host, b.m, rows)
		b.times[k] = t
	}
	return t
}

// InvokeBatch implements backend.Backend: the reference kernels run on the
// occupied row prefix and the invoke is priced into the HostFallback phase
// at the effective batch.
func (b *Backend) InvokeBatch(rows int) (backend.Timing, error) {
	return b.observe(b.invokeBatch(rows))
}

func (b *Backend) invokeBatch(rows int) (backend.Timing, error) {
	rows = b.normRows(rows)
	if rows > 0 && !b.m.RowSliceable() {
		return backend.Timing{}, fmt.Errorf("hostcpu: model %q is not row-sliceable; cannot invoke %d of %d rows",
			b.m.Name, rows, b.m.BatchCapacity())
	}
	if err := b.interp.InvokeRows(rows); err != nil {
		return backend.Timing{}, fmt.Errorf("hostcpu: invoke: %w", err)
	}
	return backend.Timing{HostFallback: b.price(rows)}, nil
}

// Reset rebuilds the interpreter for the loaded model. The pricing cache
// survives: it is keyed by the model, which has not changed.
func (b *Backend) Reset() (time.Duration, error) { return b.Load(b.m) }

// ModelTime prices one full invocation of a (typically quantized) model on
// the host CPU using the cpuarch primitives.
func ModelTime(host cpuarch.Spec, m *tflite.Model) time.Duration {
	return ModelTimeRows(host, m, 0)
}

// ModelTimeRows prices one invocation at an effective batch of rows
// occupied sample rows. rows <= 0 (or >= the model's batch capacity) prices
// the full batch with exactly the unscaled arithmetic. On row-sliceable
// models the per-op element counts are batch-leading, so the scaling is an
// exact integer division, mirroring the device-side partial-batch pricing.
func ModelTimeRows(host cpuarch.Spec, m *tflite.Model, rows int) time.Duration {
	capacity := m.BatchCapacity()
	partial := rows > 0 && rows < capacity
	scale := func(n int) int {
		if !partial {
			return n
		}
		return n * rows / capacity
	}
	var total time.Duration
	for _, op := range m.Operators {
		outElems := 0
		for _, ti := range op.Outputs {
			outElems += scale(m.Tensors[ti].Shape.Elems())
		}
		switch op.Op {
		case tflite.OpFullyConnected:
			in := m.Tensors[op.Inputs[0]]
			w := m.Tensors[op.Inputs[1]]
			batch, depth, units := in.Shape[0], in.Shape[1], w.Shape[0]
			if partial {
				batch = rows
			}
			if in.DType == tensor.Int8 {
				total += host.Int8GEMMTime(batch, depth, units)
			} else {
				total += host.GEMMTime(batch, depth, units)
			}
		case tflite.OpTanh, tflite.OpLogistic:
			if m.Tensors[op.Inputs[0]].DType == tensor.Int8 {
				total += host.LUTTime(outElems)
			} else {
				total += host.TanhTime(outElems)
			}
		case tflite.OpQuantize, tflite.OpDequantize:
			total += host.QuantizeTime(outElems)
		case tflite.OpArgMax:
			in := m.Tensors[op.Inputs[0]]
			total += host.ArgMaxTime(scale(in.Shape.Elems()))
		case tflite.OpSoftmax:
			total += host.TanhTime(outElems)
		default: // CONCAT, RESHAPE and other data movement
			bytes := 0
			for _, ti := range op.Outputs {
				info := m.Tensors[ti]
				bytes += scale(info.Shape.Elems()) * info.DType.Size()
			}
			total += host.StreamTime(2 * bytes)
		}
	}
	return total
}
