package edgetpu

import (
	"fmt"
	"time"

	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// Timing breaks one invocation's wall-clock cost into the phases the
// paper's runtime figures distinguish.
type Timing struct {
	Host         time.Duration // interpreter/delegate dispatch overhead
	TransferIn   time.Duration // activations host → device
	WeightStream time.Duration // parameter streaming (non-resident models)
	Compute      time.Duration // MXU + activation pipeline
	HostFallback time.Duration // CPU-placed operators
	TransferOut  time.Duration // activations device → host

	Cycles uint64 // accelerator cycles spent in Compute
	MACs   uint64 // multiply-accumulates performed on the MXU
}

// Total returns the end-to-end invocation latency.
func (t Timing) Total() time.Duration {
	return t.Host + t.TransferIn + t.WeightStream + t.Compute + t.HostFallback + t.TransferOut
}

// Add accumulates another invocation's timing into t.
func (t *Timing) Add(o Timing) {
	t.Host += o.Host
	t.TransferIn += o.TransferIn
	t.WeightStream += o.WeightStream
	t.Compute += o.Compute
	t.HostFallback += o.HostFallback
	t.TransferOut += o.TransferOut
	t.Cycles += o.Cycles
	t.MACs += o.MACs
}

// Device is one simulated accelerator instance with at most one loaded
// model, mirroring the single-program restriction of the real part.
type Device struct {
	cfg      Config
	loaded   *CompiledModel
	interp   *tflite.Interpreter
	array    Array
	profiler *Profiler
	faults   *faultState

	// poisoned marks the interpreter state as half-executed after a
	// mid-operator error; Invoke refuses to run until LoadModel resets it.
	poisoned bool

	// SetupTime is the one-time cost paid by LoadModel (model transfer
	// and, for resident models, the parameter upload).
	SetupTime time.Duration
}

// NewDevice returns an idle device.
func NewDevice(cfg Config) *Device {
	return &Device{cfg: cfg, array: Array{Rows: cfg.MXURows, Cols: cfg.MXUCols}}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// LoadModel uploads a compiled model. For resident models the parameters
// cross the link once here; streaming models pay per invocation instead.
// Loading also clears a poisoned or reset device: the fresh interpreter
// state (including pristine parameter copies) replaces whatever a previous
// fault corrupted.
func (d *Device) LoadModel(cm *CompiledModel) (time.Duration, error) {
	if cm == nil {
		return 0, fmt.Errorf("edgetpu: nil compiled model")
	}
	if cm.Config != d.cfg {
		return 0, fmt.Errorf("edgetpu: model compiled for %q, device is %q", cm.Config.Name, d.cfg.Name)
	}
	it, err := tflite.NewInterpreter(cm.Model)
	if err != nil {
		return 0, err
	}
	setup := d.cfg.transferTime(len(cm.Model.Marshal()))
	if cm.Resident {
		setup += d.cfg.transferTime(cm.ParamBytes)
	}
	d.loaded = cm
	d.interp = it
	d.poisoned = false
	d.SetupTime = setup
	return setup, nil
}

// Input returns the i-th model input tensor of the loaded model.
func (d *Device) Input(i int) *tensor.Tensor {
	return d.interp.Input(i)
}

// Output returns the i-th model output tensor after Invoke.
func (d *Device) Output(i int) *tensor.Tensor {
	return d.interp.Output(i)
}

// Invoke executes the loaded model once and returns the phase timing.
// Every operator executes through the device's own interpreter, so results
// are bit-identical to the tflite reference; placement decides only the
// price. CPU-placed operators are priced by the host cost model, delegated
// FULLY_CONNECTED ops by the systolic array's cycle model, and other
// delegated ops by the activation pipeline's.
//
// With a fault plan armed (InjectFaults), Invoke may return a typed
// transient error — *LinkError, *ResetError, ErrNoModel, ErrPoisoned —
// classified by IsRetryable/NeedsReload. On such errors the returned Timing
// carries the time the failed attempt wasted.
func (d *Device) Invoke() (Timing, error) {
	t, _, err := d.run(true, false, 0)
	return t, err
}

// InvokeBatch executes only the first rows sample rows of the loaded model:
// kernels run on row-prefix views (unoccupied rows are never computed) and
// the cycle, transfer and host cost models are charged at the effective
// batch, so a model compiled at capacity B serves rows < B requests at the
// partially-amortized cost the hardware would pay. rows <= 0 or rows >= the
// model's batch capacity is a full invoke, bit-identical to Invoke. Partial
// rows require a row-sliceable model (every activation batch-leading).
func (d *Device) InvokeBatch(rows int) (Timing, error) {
	t, _, err := d.run(true, false, rows)
	return t, err
}

// EstimateInvoke returns the timing one Invoke would take without
// executing any kernels. It uses the same cycle and transfer models as
// Invoke, so runtime experiments can be evaluated at the paper's full
// dataset scale where functional execution would be wasteful. Estimation
// never injects faults and never poisons the device.
func (d *Device) EstimateInvoke() (Timing, error) {
	t, _, err := d.run(false, false, 0)
	return t, err
}

// EstimateInvokeBatch is EstimateInvoke at an effective batch of rows
// occupied sample rows: the same rows-scaled pricing as InvokeBatch with no
// kernel execution.
func (d *Device) EstimateInvokeBatch(rows int) (Timing, error) {
	t, _, err := d.run(false, false, rows)
	return t, err
}

// run is the single op-walk behind Invoke, InvokeProfiled and
// EstimateInvoke. execute selects functional execution (kernels run, faults
// inject) versus pure estimation; both price every op from the model's
// shapes, so an estimate equals the invoke it stands for. trace
// additionally collects per-op traces. rows limits execution and pricing to
// the first rows sample rows of the batch; rows <= 0 (or >= the compiled
// batch capacity) is a full invoke and takes exactly the unscaled
// arithmetic, so the full path stays bit-identical to the pre-batching
// runtime.
func (d *Device) run(execute, trace bool, rows int) (Timing, []OpTrace, error) {
	if d.loaded == nil {
		return Timing{}, nil, ErrNoModel
	}
	if execute && d.poisoned {
		return Timing{}, nil, ErrPoisoned
	}
	cm := d.loaded
	capacity := cm.BatchCapacity()
	partial := rows > 0 && rows < capacity
	if partial && !cm.Model.RowSliceable() {
		return Timing{}, nil, fmt.Errorf("edgetpu: model %q is not row-sliceable; cannot invoke %d of %d rows",
			cm.Model.Name, rows, capacity)
	}
	vrows := 0 // rows argument for the interpreter's view resolution
	if partial {
		vrows = rows
	}
	// scaleElems prices a batch-leading tensor quantity at the effective
	// batch. Boundary tensors and activations are batch-leading on
	// row-sliceable models, so n is divisible by capacity and the division
	// is exact — partial-batch pricing is exact integer arithmetic, not a
	// rounded approximation.
	scaleElems := func(n int) int {
		if !partial {
			return n
		}
		return n * rows / capacity
	}
	var t Timing
	t.Host = d.cfg.InvokeOverhead

	inject := execute && d.faults != nil
	if inject && d.faults.reset() {
		// The device dropped its program before dispatch reached it; the
		// host paid the invoke overhead to find out.
		d.loaded = nil
		d.interp = nil
		d.poisoned = false
		return t, nil, &ResetError{}
	}

	if cm.DelegatedOps() > 0 {
		inBytes := scaleElems(cm.TransferInBytes)
		if inject {
			if le, penalty := d.faults.linkFault(PhaseTransferIn, inBytes); le != nil {
				t.TransferIn = penalty
				return t, nil, le
			}
		}
		t.TransferIn = d.cfg.transferTime(inBytes)
		if !cm.Resident {
			// Streamed parameters are batch-independent: the full weight
			// set crosses the link however many rows are occupied.
			if inject {
				if le, penalty := d.faults.linkFault(PhaseWeightStream, cm.ParamBytes); le != nil {
					t.WeightStream = penalty
					return t, nil, le
				}
			}
			t.WeightStream = d.cfg.transferTime(cm.ParamBytes)
		}
	}

	if inject {
		d.faults.injectSEUs(d)
	}

	var traces []OpTrace
	if trace {
		traces = make([]OpTrace, 0, len(cm.Model.Operators))
	}
	var cycles uint64
	for oi, op := range cm.Model.Operators {
		// Price first, so an op the accelerator cannot run fails before it
		// executes; then run it through the interpreter on the row prefix.
		tr := OpTrace{Op: oi, Code: op.Op, Placement: cm.Placements[oi]}
		switch {
		case tr.Placement == PlaceCPU:
			tr.HostTime = d.hostOpCost(op, scaleElems)
		case op.Op == tflite.OpFullyConnected:
			in := cm.Model.Tensors[op.Inputs[0]]
			batch := in.Shape[0]
			if partial {
				batch = rows
			}
			stats := d.array.fcCycles(batch, in.Shape[1], cm.Model.Tensors[op.Inputs[1]].Shape[0])
			tr.Cycles, tr.MACs = stats.Cycles, stats.MACs
		case op.Op == tflite.OpTanh, op.Op == tflite.OpLogistic, op.Op == tflite.OpConcat, op.Op == tflite.OpReshape:
			tr.Cycles = d.array.lutCycles(scaleElems(cm.Model.Tensors[op.Outputs[0]].Shape.Elems()))
		default:
			if execute {
				d.poisoned = true
			}
			return t, traces, fmt.Errorf("edgetpu: op %d (%v) delegated but not executable", oi, op.Op)
		}
		if execute {
			if err := d.interp.InvokeOpRows(oi, vrows); err != nil {
				d.poisoned = true
				return t, traces, err
			}
		}
		t.HostFallback += tr.HostTime
		t.MACs += tr.MACs
		cycles += tr.Cycles
		if trace {
			traces = append(traces, tr)
		}
	}
	t.Cycles = cycles
	t.Compute = d.cfg.cyclesToTime(cycles)

	if cm.DelegatedOps() > 0 {
		outBytes := scaleElems(cm.TransferOutBytes)
		if inject {
			if le, penalty := d.faults.linkFault(PhaseTransferOut, outBytes); le != nil {
				// Compute completed, but the results never made it back: the
				// attempt pays everything up to here plus the timeout.
				t.TransferOut = penalty
				return t, traces, le
			}
		}
		t.TransferOut = d.cfg.transferTime(outBytes)
	}
	return t, traces, nil
}

// hostOpCost prices a CPU-fallback operator by its produced elements,
// scaled to the effective batch by scaleElems.
func (d *Device) hostOpCost(op tflite.Operator, scaleElems func(int) int) time.Duration {
	elems := 0
	for _, ti := range op.Outputs {
		elems += scaleElems(d.loaded.Model.Tensors[ti].Shape.Elems())
	}
	return time.Duration(float64(elems) * d.cfg.HostNsPerElem)
}
