// Package tensor provides the dense numeric arrays and kernels shared by
// the HDC core, the TFLite-style interpreter, and the Edge TPU simulator.
//
// Tensors are row-major and carry an explicit element type so that the same
// graph structures can describe both float32 reference models and their
// full-integer quantized counterparts.
package tensor

import (
	"fmt"
	"strings"
)

// DType enumerates the element types understood by the framework. They
// mirror the subset of TFLite types the paper's models use.
type DType uint8

const (
	Float32 DType = iota
	Int8
	Int32
	UInt8
)

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	case Int32:
		return "int32"
	case UInt8:
		return "uint8"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(d))
	}
}

// Size returns the width of one element in bytes.
func (d DType) Size() int {
	switch d {
	case Float32, Int32:
		return 4
	default:
		return 1
	}
}

// Shape describes tensor dimensions, outermost first.
type Shape []int

// Elems returns the total element count; the empty shape is a scalar with
// one element.
func (s Shape) Elems() int {
	n := 1
	for _, d := range s {
		if d < 0 {
			return 0
		}
		n *= d
	}
	return n
}

// Equal reports whether two shapes match exactly.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as, e.g., [3 608].
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Tensor is a dense row-major array. Exactly one of the backing slices is
// populated, selected by DType.
type Tensor struct {
	DType DType
	Shape Shape

	F32 []float32
	I8  []int8
	I32 []int32
	U8  []uint8

	// Quant carries quantization parameters for integer tensors; it is
	// nil for float tensors.
	Quant *QuantParams
}

// New allocates a zero tensor of the given type and shape.
func New(dt DType, shape ...int) *Tensor {
	t := &Tensor{DType: dt, Shape: Shape(shape).Clone()}
	n := t.Shape.Elems()
	switch dt {
	case Float32:
		t.F32 = make([]float32, n)
	case Int8:
		t.I8 = make([]int8, n)
	case Int32:
		t.I32 = make([]int32, n)
	case UInt8:
		t.U8 = make([]uint8, n)
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %v", dt))
	}
	return t
}

// FromFloat32 wraps data (not copied) in a float tensor. It panics when the
// length does not match the shape.
func FromFloat32(data []float32, shape ...int) *Tensor {
	s := Shape(shape)
	if len(data) != s.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Tensor{DType: Float32, Shape: s.Clone(), F32: data}
}

// Elems returns the number of elements.
func (t *Tensor) Elems() int { return t.Shape.Elems() }

// Bytes returns the size of the raw data in bytes.
func (t *Tensor) Bytes() int { return t.Elems() * t.DType.Size() }

// Clone returns a deep copy of the tensor, including quantization params.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{DType: t.DType, Shape: t.Shape.Clone()}
	switch t.DType {
	case Float32:
		c.F32 = append([]float32(nil), t.F32...)
	case Int8:
		c.I8 = append([]int8(nil), t.I8...)
	case Int32:
		c.I32 = append([]int32(nil), t.I32...)
	case UInt8:
		c.U8 = append([]uint8(nil), t.U8...)
	}
	if t.Quant != nil {
		q := *t.Quant
		c.Quant = &q
	}
	return c
}

// At returns the float value at the row-major offset i, dequantizing
// integer tensors on the fly. It is a convenience for tests and metrics,
// not a hot path.
func (t *Tensor) At(i int) float64 {
	switch t.DType {
	case Float32:
		return float64(t.F32[i])
	case Int8:
		if t.Quant != nil {
			return t.Quant.DequantizeOne(t.I8[i])
		}
		return float64(t.I8[i])
	case Int32:
		if t.Quant != nil {
			return float64(t.I32[i]-t.Quant.ZeroPoint) * t.Quant.Scale
		}
		return float64(t.I32[i])
	case UInt8:
		return float64(t.U8[i])
	}
	panic("tensor: At on unknown dtype")
}

// Row returns a view of row r of a 2-D float tensor.
func (t *Tensor) Row(r int) []float32 {
	if t.DType != Float32 || len(t.Shape) != 2 {
		panic("tensor: Row requires a 2-D float tensor")
	}
	cols := t.Shape[1]
	return t.F32[r*cols : (r+1)*cols]
}

// ViewRows returns a tensor aliasing rows [lo, hi) of t along its leading
// dimension: same dtype, shared backing storage and quantization params,
// with the leading dimension clipped to hi-lo. Writes through the view are
// visible in t. It is the batching primitive: a model compiled at capacity
// B executes on a ViewRows(0, rows) prefix to serve rows occupied samples.
func (t *Tensor) ViewRows(lo, hi int) *Tensor {
	if len(t.Shape) == 0 {
		panic("tensor: ViewRows on a scalar")
	}
	if lo < 0 || hi < lo || hi > t.Shape[0] {
		panic(fmt.Sprintf("tensor: ViewRows [%d, %d) outside leading dim %d", lo, hi, t.Shape[0]))
	}
	stride := 1
	for _, d := range t.Shape[1:] {
		stride *= d
	}
	shape := t.Shape.Clone()
	shape[0] = hi - lo
	v := &Tensor{DType: t.DType, Shape: shape, Quant: t.Quant}
	a, b := lo*stride, hi*stride
	switch t.DType {
	case Float32:
		v.F32 = t.F32[a:b]
	case Int8:
		v.I8 = t.I8[a:b]
	case Int32:
		v.I32 = t.I32[a:b]
	case UInt8:
		v.U8 = t.U8[a:b]
	}
	return v
}

// String renders a short description, not the data.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%v %v)", t.DType, t.Shape)
}
