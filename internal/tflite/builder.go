package tflite

import (
	"encoding/binary"
	"fmt"
	"math"

	"hdcedge/internal/tensor"
)

// Builder incrementally assembles a Model. The typical flow is:
//
//	b := tflite.NewBuilder("encoder")
//	in := b.AddInput("features", tensor.Float32, batch, n)
//	w := b.AddConstF32("B_T", bt)       // [d, n]
//	bias := b.AddConstF32("bias0", ...) // [d]
//	h := b.FullyConnected(in, w, bias, "hidden")
//	e := b.Tanh(h, "encoded")
//	b.MarkOutput(e)
//	model := b.Finish()
type Builder struct {
	m Model
}

// NewBuilder returns an empty builder for a model with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{m: Model{Name: name}}
}

// AddInput declares a model input activation and returns its tensor index.
func (b *Builder) AddInput(name string, dt tensor.DType, shape ...int) int {
	idx := b.addTensor(TensorInfo{Name: name, DType: dt, Shape: tensor.Shape(shape).Clone(), Buffer: NoBuffer})
	b.m.Inputs = append(b.m.Inputs, idx)
	return idx
}

// AddActivation declares an intermediate runtime tensor.
func (b *Builder) AddActivation(name string, dt tensor.DType, shape ...int) int {
	return b.addTensor(TensorInfo{Name: name, DType: dt, Shape: tensor.Shape(shape).Clone(), Buffer: NoBuffer})
}

// AddConstF32 adds a float32 constant tensor backed by a new buffer.
func (b *Builder) AddConstF32(name string, t *tensor.Tensor) int {
	if t.DType != tensor.Float32 {
		panic("tflite: AddConstF32 requires a float tensor")
	}
	buf := f32ToBytes(t.F32)
	return b.addConst(name, tensor.Float32, t.Shape, nil, buf)
}

// AddConstF32Transposed adds the transpose of the 2-D float tensor t
// ([rows, cols] → [cols, rows]) as a float32 constant. The transpose is
// written straight into the new buffer, with no transposed temporary: it
// is how a [depth, units] matrix becomes FC weights [units, depth].
func (b *Builder) AddConstF32Transposed(name string, t *tensor.Tensor) int {
	if t.DType != tensor.Float32 || len(t.Shape) != 2 {
		panic("tflite: AddConstF32Transposed requires a 2-D float tensor")
	}
	rows, cols := t.Shape[0], t.Shape[1]
	buf := make([]byte, 4*rows*cols)
	for j := 0; j < cols; j++ {
		dst := buf[4*j*rows : 4*(j+1)*rows]
		for i := 0; i < rows; i++ {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(t.F32[i*cols+j]))
		}
	}
	return b.addConst(name, tensor.Float32, tensor.Shape{cols, rows}, nil, buf)
}

// AddConstI8 adds an int8 constant tensor with quantization parameters.
func (b *Builder) AddConstI8(name string, t *tensor.Tensor) int {
	if t.DType != tensor.Int8 {
		panic("tflite: AddConstI8 requires an int8 tensor")
	}
	return b.addConst(name, tensor.Int8, t.Shape, t.Quant, i8ToBytes(t.I8))
}

// AddConstI32 adds an int32 constant tensor (e.g. a quantized bias).
func (b *Builder) AddConstI32(name string, t *tensor.Tensor) int {
	if t.DType != tensor.Int32 {
		panic("tflite: AddConstI32 requires an int32 tensor")
	}
	return b.addConst(name, tensor.Int32, t.Shape, t.Quant, i32ToBytes(t.I32))
}

func (b *Builder) addConst(name string, dt tensor.DType, shape tensor.Shape, q *tensor.QuantParams, raw []byte) int {
	b.m.Buffers = append(b.m.Buffers, raw)
	return b.addTensor(TensorInfo{
		Name: name, DType: dt, Shape: shape.Clone(), Quant: cloneQuant(q),
		Buffer: len(b.m.Buffers) - 1,
	})
}

func (b *Builder) addTensor(ti TensorInfo) int {
	b.m.Tensors = append(b.m.Tensors, ti)
	return len(b.m.Tensors) - 1
}

// SetQuant attaches quantization parameters to an existing tensor.
func (b *Builder) SetQuant(idx int, q tensor.QuantParams) {
	b.m.Tensors[idx].Quant = &q
}

// FullyConnected appends out = in · Wᵀ + bias with W of shape [units, k].
// The output activation has the input's batch dimension and W's unit count,
// and the input's dtype.
func (b *Builder) FullyConnected(in, weights, bias int, outName string) int {
	wi := b.m.Tensors[weights]
	ii := b.m.Tensors[in]
	if len(wi.Shape) != 2 {
		panic(fmt.Sprintf("tflite: FC weights must be 2-D, got %v", wi.Shape))
	}
	batch := 1
	if len(ii.Shape) == 2 {
		batch = ii.Shape[0]
	}
	outDT := ii.DType
	out := b.AddActivation(outName, outDT, batch, wi.Shape[0])
	b.m.Operators = append(b.m.Operators, Operator{
		Op:     OpFullyConnected,
		Inputs: []int{in, weights, bias}, Outputs: []int{out},
	})
	return out
}

// Tanh appends an element-wise tanh. Int8 outputs use the TFLite
// convention scale = 1/128, zero point 0.
func (b *Builder) Tanh(in int, outName string) int {
	ii := b.m.Tensors[in]
	out := b.AddActivation(outName, ii.DType, ii.Shape...)
	if ii.DType == tensor.Int8 {
		b.SetQuant(out, tensor.QuantParams{Scale: 1.0 / 128.0, ZeroPoint: 0})
	}
	b.m.Operators = append(b.m.Operators, Operator{Op: OpTanh, Inputs: []int{in}, Outputs: []int{out}})
	return out
}

// Logistic appends an element-wise sigmoid. Int8 outputs use the TFLite
// convention scale = 1/256, zero point −128 (outputs in [0, 1)).
func (b *Builder) Logistic(in int, outName string) int {
	ii := b.m.Tensors[in]
	out := b.AddActivation(outName, ii.DType, ii.Shape...)
	if ii.DType == tensor.Int8 {
		b.SetQuant(out, tensor.QuantParams{Scale: 1.0 / 256.0, ZeroPoint: -128})
	}
	b.m.Operators = append(b.m.Operators, Operator{Op: OpLogistic, Inputs: []int{in}, Outputs: []int{out}})
	return out
}

// Quantize appends a float→int8 quantize node with the given parameters.
func (b *Builder) Quantize(in int, q tensor.QuantParams, outName string) int {
	ii := b.m.Tensors[in]
	out := b.AddActivation(outName, tensor.Int8, ii.Shape...)
	b.SetQuant(out, q)
	b.m.Operators = append(b.m.Operators, Operator{Op: OpQuantize, Inputs: []int{in}, Outputs: []int{out}})
	return out
}

// Dequantize appends an int8→float dequantize node.
func (b *Builder) Dequantize(in int, outName string) int {
	ii := b.m.Tensors[in]
	out := b.AddActivation(outName, tensor.Float32, ii.Shape...)
	b.m.Operators = append(b.m.Operators, Operator{Op: OpDequantize, Inputs: []int{in}, Outputs: []int{out}})
	return out
}

// ArgMax appends an arg-max over the last axis, producing int32 indices.
func (b *Builder) ArgMax(in int, outName string) int {
	ii := b.m.Tensors[in]
	outShape := ii.Shape.Clone()
	if len(outShape) > 0 {
		outShape = outShape[:len(outShape)-1]
	}
	if len(outShape) == 0 {
		outShape = tensor.Shape{1}
	}
	out := b.AddActivation(outName, tensor.Int32, outShape...)
	b.m.Operators = append(b.m.Operators, Operator{
		Op: OpArgMax, Inputs: []int{in}, Outputs: []int{out},
		Opts: Options{Axis: int32(len(ii.Shape) - 1)},
	})
	return out
}

// MarkOutput registers a tensor as a model output.
func (b *Builder) MarkOutput(idx int) {
	b.m.Outputs = append(b.m.Outputs, idx)
}

// Finish validates and returns the model. It panics on an invalid graph,
// since builder misuse is a programming error.
func (b *Builder) Finish() *Model {
	m := b.m
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return &m
}

// --- raw byte conversion helpers (little endian, matching serialization) ---

func f32ToBytes(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func bytesToF32(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

func i8ToBytes(xs []int8) []byte {
	out := make([]byte, len(xs))
	for i, v := range xs {
		out[i] = byte(v)
	}
	return out
}

func bytesToI8(raw []byte) []int8 {
	out := make([]int8, len(raw))
	for i, v := range raw {
		out[i] = int8(v)
	}
	return out
}

func i32ToBytes(xs []int32) []byte {
	out := make([]byte, 4*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func bytesToI32(raw []byte) []int32 {
	out := make([]int32, len(raw)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}
