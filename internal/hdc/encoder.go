// Package hdc implements the hyperdimensional-computing classifier the
// paper accelerates: non-linear random-projection encoding into
// d-dimensional hypervectors, perceptron-style class-hypervector training
// (bundling and detaching on mispredictions), and associative-search
// classification by dot-product similarity.
//
// The package is the CPU-baseline implementation; internal/nnmap converts
// its models into the hyper-wide neural networks that internal/edgetpu
// accelerates.
package hdc

import (
	"fmt"

	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// DefaultDim is the hypervector width d used throughout the paper.
const DefaultDim = 10000

// Encoder maps n-feature inputs into d-dimensional hypervectors:
//
//	E = tanh(f₁·B₁ + f₂·B₂ + … + fₙ·Bₙ)
//
// where each base hypervector Bᵢ has i.i.d. N(0,1) components, making the
// bases near-orthogonal in high dimension. With Nonlinear disabled the
// tanh is skipped (the linear-encoding baseline of prior work).
type Encoder struct {
	// Base holds the base hypervectors as an [n, d] matrix: row i is Bᵢ.
	Base *tensor.Tensor
	// Nonlinear applies the tanh activation after bundling.
	Nonlinear bool
}

// NewEncoder draws base hypervectors for nFeatures inputs at width dim
// from r.
func NewEncoder(nFeatures, dim int, nonlinear bool, r *rng.RNG) *Encoder {
	if nFeatures <= 0 || dim <= 0 {
		panic(fmt.Sprintf("hdc: invalid encoder dims %d×%d", nFeatures, dim))
	}
	base := tensor.New(tensor.Float32, nFeatures, dim)
	r.FillNormal(base.F32)
	return &Encoder{Base: base, Nonlinear: nonlinear}
}

// Features returns the input dimensionality n.
func (e *Encoder) Features() int { return e.Base.Shape[0] }

// Dim returns the hypervector width d.
func (e *Encoder) Dim() int { return e.Base.Shape[1] }

// Encode writes the hypervector for one feature vector into dst
// (length Dim). The non-linear encoding bundles and applies tanh in one
// parallel pass (tensor.VecMatTanh).
func (e *Encoder) Encode(dst, features []float32) {
	if e.Nonlinear {
		tensor.VecMatTanh(dst, features, e.Base)
		return
	}
	tensor.VecMat(dst, features, e.Base)
}

// EncodeBatch encodes an [s, n] design matrix into an [s, d] matrix of
// hypervectors.
func (e *Encoder) EncodeBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.DType != tensor.Float32 || len(x.Shape) != 2 || x.Shape[1] != e.Features() {
		panic(fmt.Sprintf("hdc: EncodeBatch input %v, want [*, %d] float", x.Shape, e.Features()))
	}
	out := tensor.New(tensor.Float32, x.Shape[0], e.Dim())
	tensor.MatMul(out, x, e.Base)
	if e.Nonlinear {
		tensor.TanhSlice(out.F32)
	}
	return out
}

// MaskFeatures zeroes the base hypervectors of every feature not present
// in keep, implementing bagging's feature sampling: a masked feature
// contributes nothing to any encoding. It returns the encoder for
// chaining.
func (e *Encoder) MaskFeatures(keep []bool) *Encoder {
	if len(keep) != e.Features() {
		panic(fmt.Sprintf("hdc: mask length %d, want %d", len(keep), e.Features()))
	}
	d := e.Dim()
	for i, k := range keep {
		if k {
			continue
		}
		row := e.Base.F32[i*d : (i+1)*d]
		for j := range row {
			row[j] = 0
		}
	}
	return e
}
