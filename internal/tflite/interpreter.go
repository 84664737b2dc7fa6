package tflite

import (
	"fmt"
	"math"

	"hdcedge/internal/tensor"
)

// Interpreter executes a Model on the host CPU. It is the reference
// implementation: the Edge TPU simulator must agree with it bit-exactly on
// quantized graphs.
//
// An interpreter built from a RowSliceable model can also execute a row
// prefix of the batch (InvokeRows / InvokeOpRows): kernels then run on
// cached ViewRows views of the activation tensors, computing exactly the
// first rows samples and touching nothing past them.
type Interpreter struct {
	model   *Model
	tensors []*tensor.Tensor

	capacity  int
	sliceable bool

	// views caches the row-prefix views per (rows) value so steady-state
	// batched invokes allocate nothing; luts caches the int8 activation
	// lookup tables per operator index (quantization params are fixed at
	// build time, so the tables never change).
	views map[int][]*tensor.Tensor
	luts  map[int]*[256]int8
}

// NewInterpreter validates the model and allocates all activations. Each
// interpreter holds its own decoded copy of the constants.
func NewInterpreter(m *Model) (*Interpreter, error) {
	return newInterpreter(m, nil)
}

// newInterpreter is NewInterpreter with the constants in consts (indexed by
// tensor, nil where absent) taken as they are instead of decoded.
func newInterpreter(m *Model, consts []*tensor.Tensor) (*Interpreter, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	it := &Interpreter{
		model:     m,
		tensors:   make([]*tensor.Tensor, len(m.Tensors)),
		capacity:  m.BatchCapacity(),
		sliceable: m.RowSliceable(),
	}
	for i, ti := range m.Tensors {
		if ti.Buffer != NoBuffer {
			if i < len(consts) && consts[i] != nil {
				it.tensors[i] = consts[i]
				continue
			}
			ct, err := m.ConstTensor(i)
			if err != nil {
				return nil, err
			}
			it.tensors[i] = ct
			continue
		}
		t := tensor.New(ti.DType, ti.Shape...)
		t.Quant = cloneQuant(ti.Quant)
		it.tensors[i] = t
	}
	return it, nil
}

// Model returns the model being interpreted.
func (it *Interpreter) Model() *Model { return it.model }

// Input returns the i-th model input tensor for the caller to fill.
func (it *Interpreter) Input(i int) *tensor.Tensor {
	return it.tensors[it.model.Inputs[i]]
}

// Output returns the i-th model output tensor after Invoke.
func (it *Interpreter) Output(i int) *tensor.Tensor {
	return it.tensors[it.model.Outputs[i]]
}

// Tensor returns the runtime tensor at graph index idx.
func (it *Interpreter) Tensor(idx int) *tensor.Tensor { return it.tensors[idx] }

// viewFor resolves graph index ti for a rows-limited execution. Constant
// tensors (weights, biases, axes) are never clipped; activations resolve to
// a cached prefix view sharing the full tensor's storage.
func (it *Interpreter) viewFor(ti, rows int) *tensor.Tensor {
	if it.model.Tensors[ti].Buffer != NoBuffer {
		return it.tensors[ti]
	}
	if it.views == nil {
		it.views = make(map[int][]*tensor.Tensor)
	}
	vs, ok := it.views[rows]
	if !ok {
		vs = make([]*tensor.Tensor, len(it.tensors))
		it.views[rows] = vs
	}
	if vs[ti] == nil {
		vs[ti] = it.tensors[ti].ViewRows(0, rows)
	}
	return vs[ti]
}

// InvokeOpRows executes the single operator at index i on the first rows
// sample rows only. It lets a delegate runtime (the Edge TPU simulator)
// interleave its own kernels with the reference CPU kernels while sharing
// one tensor store. rows <= 0 (or >= the batch capacity) executes the full
// batch; anything between requires a RowSliceable model.
func (it *Interpreter) InvokeOpRows(i, rows int) error {
	if i < 0 || i >= len(it.model.Operators) {
		return fmt.Errorf("tflite: op index %d out of range", i)
	}
	at := it.Tensor
	if rows > 0 && rows < it.capacity {
		if !it.sliceable {
			return fmt.Errorf("tflite: model %q is not row-sliceable; cannot invoke %d of %d rows",
				it.model.Name, rows, it.capacity)
		}
		at = func(ti int) *tensor.Tensor { return it.viewFor(ti, rows) }
	}
	op := it.model.Operators[i]
	if err := it.exec(i, op, at); err != nil {
		return fmt.Errorf("tflite: op %d (%v): %w", i, op.Op, err)
	}
	return nil
}

// Invoke runs all operators in graph order.
func (it *Interpreter) Invoke() error { return it.InvokeRows(0) }

// InvokeRows runs all operators in graph order on the first rows sample
// rows. rows <= 0 (or >= the batch capacity) runs the full batch.
func (it *Interpreter) InvokeRows(rows int) error {
	for oi := range it.model.Operators {
		if err := it.InvokeOpRows(oi, rows); err != nil {
			return err
		}
	}
	return nil
}

func (it *Interpreter) exec(oi int, op Operator, at func(int) *tensor.Tensor) error {
	switch op.Op {
	case OpFullyConnected:
		return it.execFullyConnected(op, at)
	case OpTanh:
		return it.execTanh(oi, op, at)
	case OpLogistic:
		return it.execLogistic(oi, op, at)
	case OpQuantize:
		return it.execQuantize(op, at)
	case OpDequantize:
		return it.execDequantize(op, at)
	case OpArgMax:
		return it.execArgMax(op, at)
	case OpConcat:
		return it.execConcat(op, at)
	case OpReshape:
		return it.execReshape(op, at)
	case OpSoftmax:
		return it.execSoftmax(op, at)
	default:
		return fmt.Errorf("unsupported opcode %v", op.Op)
	}
}

func (it *Interpreter) execFullyConnected(op Operator, at func(int) *tensor.Tensor) error {
	in := at(op.Inputs[0])
	w := at(op.Inputs[1])
	bias := at(op.Inputs[2])
	out := at(op.Outputs[0])
	switch in.DType {
	case tensor.Float32:
		return fullyConnectedFloat(in, w, bias, out)
	case tensor.Int8:
		return FullyConnectedInt8(in, w, bias, out)
	default:
		return fmt.Errorf("FULLY_CONNECTED on %v input", in.DType)
	}
}

// lutFor returns the activation lookup table for operator oi. The global
// table store in lut.go already memoizes by quantization params, but behind
// a mutex; caching per (interpreter, op) keeps concurrent serving workers
// off that lock on the steady path. Params are fixed at build time, so the
// cache never invalidates. The cached table is this interpreter's private
// copy — it models the activation LUT SRAM of one device, so fault
// injection (and integrity scrubbing) on one interpreter can never bleed
// into another through the shared memoization store.
func (it *Interpreter) lutFor(oi int, build func() *[256]int8) *[256]int8 {
	if lut, ok := it.luts[oi]; ok {
		return lut
	}
	if it.luts == nil {
		it.luts = make(map[int]*[256]int8)
	}
	lut := *build() // private copy: this interpreter's LUT SRAM
	it.luts[oi] = &lut
	return &lut
}

// CachedLUT returns operator oi's resident activation lookup table, or nil
// when the operator has not materialized one yet (never executed, or not an
// int8 element-wise op). The returned pointer is live device state: writes
// through it model LUT-SRAM corruption, and integrity scrubbing verifies it
// against the golden table (ActivationLUT).
func (it *Interpreter) CachedLUT(oi int) *[256]int8 {
	return it.luts[oi]
}

func (it *Interpreter) execTanh(oi int, op Operator, at func(int) *tensor.Tensor) error {
	in := at(op.Inputs[0])
	out := at(op.Outputs[0])
	switch in.DType {
	case tensor.Float32:
		copy(out.F32, in.F32)
		tensor.TanhSlice(out.F32)
		return nil
	case tensor.Int8:
		if in.Quant == nil || out.Quant == nil {
			return fmt.Errorf("int8 TANH missing quantization parameters")
		}
		lut := it.lutFor(oi, func() *[256]int8 { return tanhLUT(*in.Quant, *out.Quant) })
		for i, v := range in.I8 {
			out.I8[i] = lut[uint8(v)]
		}
		return nil
	default:
		return fmt.Errorf("TANH on %v input", in.DType)
	}
}

func (it *Interpreter) execLogistic(oi int, op Operator, at func(int) *tensor.Tensor) error {
	in := at(op.Inputs[0])
	out := at(op.Outputs[0])
	switch in.DType {
	case tensor.Float32:
		for i, v := range in.F32 {
			out.F32[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
		return nil
	case tensor.Int8:
		if in.Quant == nil || out.Quant == nil {
			return fmt.Errorf("int8 LOGISTIC missing quantization parameters")
		}
		lut := it.lutFor(oi, func() *[256]int8 { return logisticLUT(*in.Quant, *out.Quant) })
		for i, v := range in.I8 {
			out.I8[i] = lut[uint8(v)]
		}
		return nil
	default:
		return fmt.Errorf("LOGISTIC on %v input", in.DType)
	}
}

func (it *Interpreter) execQuantize(op Operator, at func(int) *tensor.Tensor) error {
	in := at(op.Inputs[0])
	out := at(op.Outputs[0])
	if in.DType != tensor.Float32 || out.DType != tensor.Int8 || out.Quant == nil {
		return fmt.Errorf("QUANTIZE needs float input and quantized int8 output")
	}
	q := *out.Quant
	for i, v := range in.F32 {
		out.I8[i] = q.QuantizeOne(float64(v))
	}
	return nil
}

func (it *Interpreter) execDequantize(op Operator, at func(int) *tensor.Tensor) error {
	in := at(op.Inputs[0])
	out := at(op.Outputs[0])
	if in.DType != tensor.Int8 || in.Quant == nil || out.DType != tensor.Float32 {
		return fmt.Errorf("DEQUANTIZE needs quantized int8 input and float output")
	}
	q := *in.Quant
	for i, v := range in.I8 {
		out.F32[i] = float32(q.DequantizeOne(v))
	}
	return nil
}

func (it *Interpreter) execArgMax(op Operator, at func(int) *tensor.Tensor) error {
	in := at(op.Inputs[0])
	out := at(op.Outputs[0])
	if len(in.Shape) != 2 {
		return fmt.Errorf("ARG_MAX supports 2-D inputs, got %v", in.Shape)
	}
	batch, k := in.Shape[0], in.Shape[1]
	for b := 0; b < batch; b++ {
		switch in.DType {
		case tensor.Float32:
			out.I32[b] = int32(tensor.ArgMax(in.F32[b*k : (b+1)*k]))
		case tensor.Int8:
			row := in.I8[b*k : (b+1)*k]
			best := 0
			for i := 1; i < k; i++ {
				if row[i] > row[best] {
					best = i
				}
			}
			out.I32[b] = int32(best)
		default:
			return fmt.Errorf("ARG_MAX on %v input", in.DType)
		}
	}
	return nil
}

func (it *Interpreter) execConcat(op Operator, at func(int) *tensor.Tensor) error {
	out := at(op.Outputs[0])
	if len(out.Shape) != 2 || int(op.Opts.Axis) != 1 {
		return fmt.Errorf("CONCATENATION supports axis 1 of 2-D tensors")
	}
	batch, total := out.Shape[0], out.Shape[1]
	off := 0
	for _, idx := range op.Inputs {
		in := at(idx)
		if in.DType != out.DType || in.Shape[0] != batch {
			return fmt.Errorf("CONCATENATION input mismatch")
		}
		c := in.Shape[1]
		for b := 0; b < batch; b++ {
			switch out.DType {
			case tensor.Float32:
				copy(out.F32[b*total+off:b*total+off+c], in.F32[b*c:(b+1)*c])
			case tensor.Int8:
				copy(out.I8[b*total+off:b*total+off+c], in.I8[b*c:(b+1)*c])
			default:
				return fmt.Errorf("CONCATENATION on %v", out.DType)
			}
		}
		off += c
	}
	if off != total {
		return fmt.Errorf("CONCATENATION inputs cover %d of %d columns", off, total)
	}
	return nil
}

func (it *Interpreter) execReshape(op Operator, at func(int) *tensor.Tensor) error {
	in := at(op.Inputs[0])
	out := at(op.Outputs[0])
	if in.Elems() != out.Elems() || in.DType != out.DType {
		return fmt.Errorf("RESHAPE size mismatch %v -> %v", in.Shape, out.Shape)
	}
	switch in.DType {
	case tensor.Float32:
		copy(out.F32, in.F32)
	case tensor.Int8:
		copy(out.I8, in.I8)
	case tensor.Int32:
		copy(out.I32, in.I32)
	default:
		return fmt.Errorf("RESHAPE on %v", in.DType)
	}
	return nil
}

func (it *Interpreter) execSoftmax(op Operator, at func(int) *tensor.Tensor) error {
	in := at(op.Inputs[0])
	out := at(op.Outputs[0])
	if in.DType != tensor.Float32 || len(in.Shape) != 2 {
		return fmt.Errorf("SOFTMAX supports 2-D float inputs")
	}
	beta := op.Opts.Beta
	if beta == 0 {
		beta = 1
	}
	batch, k := in.Shape[0], in.Shape[1]
	for b := 0; b < batch; b++ {
		row := in.F32[b*k : (b+1)*k]
		outRow := out.F32[b*k : (b+1)*k]
		softmaxRow(outRow, row, beta)
	}
	return nil
}
