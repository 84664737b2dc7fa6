package tflite

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"hdcedge/internal/tensor"
)

// NoBuffer marks a tensor with no constant data (a runtime activation).
const NoBuffer = -1

// TensorInfo describes one tensor in the graph. Constant tensors reference
// a buffer; activations use NoBuffer and are allocated by the interpreter.
type TensorInfo struct {
	Name   string
	DType  tensor.DType
	Shape  tensor.Shape
	Quant  *tensor.QuantParams
	Buffer int
}

// Operator is one node of the flat graph. Inputs and Outputs index into
// Model.Tensors. Execution order is the operator order (the graph is
// required to be topologically sorted, as in a TFLite flatbuffer).
type Operator struct {
	Op      OpCode
	Inputs  []int
	Outputs []int
	Opts    Options
}

// Model is a complete serializable network.
type Model struct {
	Name      string
	Tensors   []TensorInfo
	Operators []Operator
	Buffers   [][]byte
	Inputs    []int
	Outputs   []int
}

// Validate checks graph structural invariants: index ranges, buffer
// references, topological ordering, and per-op arity.
func (m *Model) Validate() error {
	nT := len(m.Tensors)
	checkIdx := func(what string, idx int) error {
		if idx < 0 || idx >= nT {
			return fmt.Errorf("tflite: %s tensor index %d out of range [0,%d)", what, idx, nT)
		}
		return nil
	}
	for i, ti := range m.Tensors {
		if ti.Buffer != NoBuffer {
			if ti.Buffer < 0 || ti.Buffer >= len(m.Buffers) {
				return fmt.Errorf("tflite: tensor %d (%s) buffer %d out of range", i, ti.Name, ti.Buffer)
			}
			want := ti.Shape.Elems() * ti.DType.Size()
			if got := len(m.Buffers[ti.Buffer]); got != want {
				return fmt.Errorf("tflite: tensor %d (%s) buffer has %d bytes, shape %v needs %d",
					i, ti.Name, got, ti.Shape, want)
			}
		}
	}
	for _, in := range m.Inputs {
		if err := checkIdx("model input", in); err != nil {
			return err
		}
	}
	for _, out := range m.Outputs {
		if err := checkIdx("model output", out); err != nil {
			return err
		}
	}
	// Topological order: an activation may only be consumed after it has
	// been produced (model inputs and constants are always ready).
	ready := make([]bool, nT)
	for i, ti := range m.Tensors {
		if ti.Buffer != NoBuffer {
			ready[i] = true
		}
	}
	for _, in := range m.Inputs {
		ready[in] = true
	}
	for oi, op := range m.Operators {
		for _, in := range op.Inputs {
			if err := checkIdx(fmt.Sprintf("op %d input", oi), in); err != nil {
				return err
			}
			if !ready[in] {
				return fmt.Errorf("tflite: op %d (%v) consumes tensor %d before it is produced", oi, op.Op, in)
			}
		}
		for _, out := range op.Outputs {
			if err := checkIdx(fmt.Sprintf("op %d output", oi), out); err != nil {
				return err
			}
			ready[out] = true
		}
		if err := checkArity(oi, op); err != nil {
			return err
		}
	}
	for _, out := range m.Outputs {
		if !ready[out] {
			return fmt.Errorf("tflite: model output %d is never produced", out)
		}
	}
	return nil
}

func checkArity(oi int, op Operator) error {
	type arity struct{ in, out int }
	want := map[OpCode]arity{
		OpFullyConnected: {3, 1},
		OpTanh:           {1, 1},
		OpQuantize:       {1, 1},
		OpDequantize:     {1, 1},
		OpArgMax:         {1, 1},
		OpReshape:        {1, 1},
		OpSoftmax:        {1, 1},
		OpLogistic:       {1, 1},
	}
	if w, ok := want[op.Op]; ok {
		if len(op.Inputs) != w.in || len(op.Outputs) != w.out {
			return fmt.Errorf("tflite: op %d (%v) arity %d->%d, want %d->%d",
				oi, op.Op, len(op.Inputs), len(op.Outputs), w.in, w.out)
		}
	}
	if op.Op == OpConcat && (len(op.Inputs) < 1 || len(op.Outputs) != 1) {
		return fmt.Errorf("tflite: op %d CONCATENATION needs >=1 inputs and 1 output", oi)
	}
	return nil
}

// ConstTensor materializes the constant data of tensor ti as a
// tensor.Tensor view (data shared with the buffer for 1-byte types,
// decoded for multi-byte types).
func (m *Model) ConstTensor(ti int) (*tensor.Tensor, error) {
	info := m.Tensors[ti]
	if info.Buffer == NoBuffer {
		return nil, fmt.Errorf("tflite: tensor %d (%s) is not constant", ti, info.Name)
	}
	raw := m.Buffers[info.Buffer]
	t := &tensor.Tensor{DType: info.DType, Shape: info.Shape.Clone(), Quant: cloneQuant(info.Quant)}
	switch info.DType {
	case tensor.Float32:
		t.F32 = bytesToF32(raw)
	case tensor.Int8:
		t.I8 = bytesToI8(raw)
	case tensor.Int32:
		t.I32 = bytesToI32(raw)
	case tensor.UInt8:
		t.U8 = append([]uint8(nil), raw...)
	default:
		return nil, fmt.Errorf("tflite: const tensor dtype %v unsupported", info.DType)
	}
	return t, nil
}

// readOnlyConst returns constant tensor ti for code that only reads it.
// Float32 data is a view of the buffer's bytes when the host is little
// endian and the buffer 4-byte aligned, since the container's layout is
// then the in-memory one; otherwise, and for other dtypes, it is decoded
// as ConstTensor does. Nothing may write through the result: it would
// write into the model.
func (m *Model) readOnlyConst(ti int) (*tensor.Tensor, error) {
	info := m.Tensors[ti]
	if info.Buffer == NoBuffer || info.DType != tensor.Float32 {
		return m.ConstTensor(ti)
	}
	raw := m.Buffers[info.Buffer]
	if !littleEndian || len(raw) == 0 || uintptr(unsafe.Pointer(&raw[0]))%4 != 0 {
		return m.ConstTensor(ti)
	}
	return &tensor.Tensor{
		DType: info.DType, Shape: info.Shape.Clone(), Quant: cloneQuant(info.Quant),
		F32: unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), len(raw)/4),
	}, nil
}

// littleEndian reports whether the host stores a uint16 low byte first.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

func cloneQuant(q *tensor.QuantParams) *tensor.QuantParams {
	if q == nil {
		return nil
	}
	c := *q
	return &c
}

// ParamBytes returns the total size of all constant buffers — the quantity
// the Edge TPU compiler fits into on-chip parameter memory.
func (m *Model) ParamBytes() int {
	n := 0
	for _, b := range m.Buffers {
		n += len(b)
	}
	return n
}

// BatchCapacity returns the leading dimension of the first model input —
// the number of sample rows one invocation processes. Zero when the model
// has no inputs or a scalar input.
func (m *Model) BatchCapacity() int {
	if len(m.Inputs) == 0 {
		return 0
	}
	shape := m.Tensors[m.Inputs[0]].Shape
	if len(shape) == 0 {
		return 0
	}
	return shape[0]
}

// RowSliceable reports whether every runtime (non-constant) tensor is
// batch-leading: its leading dimension equals the model's batch capacity.
// Such a graph can execute on a row prefix — all kernels are row-independent,
// so running on ViewRows(0, rows) views computes exactly the first rows
// samples, bit-identically to a full-capacity invoke.
func (m *Model) RowSliceable() bool {
	capacity := m.BatchCapacity()
	if capacity <= 0 {
		return false
	}
	for _, ti := range m.Tensors {
		if ti.Buffer != NoBuffer {
			continue
		}
		if len(ti.Shape) == 0 || ti.Shape[0] != capacity {
			return false
		}
	}
	return true
}
