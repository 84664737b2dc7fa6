package hdc

import (
	"fmt"

	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// This file exposes the primitive hypervector algebra — the three
// operations every HDC system composes (Kanerva [11]):
//
//	Bundle  (+)  element-wise addition: superposition; the result is
//	             similar to every operand.
//	Bind    (⊙)  element-wise multiplication: association; the result is
//	             dissimilar to both operands, and for bipolar vectors
//	             binding is its own inverse.
//	Permute (ρ)  cyclic rotation: ordering; preserves distances while
//	             decorrelating a vector from its unrotated self.
//
// The classifier above uses Bundle for class accumulation. Bind and
// Permute are exported so downstream users can build new HDC structures
// (sequences, records, graphs, stacks) directly.

// RandomHypervector draws a dense N(0,1) hypervector.
func RandomHypervector(dim int, r *rng.RNG) []float32 {
	hv := make([]float32, dim)
	r.FillNormal(hv)
	return hv
}

// RandomBipolar draws a uniform ±1 hypervector.
func RandomBipolar(dim int, r *rng.RNG) []float32 {
	hv := make([]float32, dim)
	for i := range hv {
		if r.Uint64()&1 == 1 {
			hv[i] = 1
		} else {
			hv[i] = -1
		}
	}
	return hv
}

// Bundle returns the element-wise sum of the given hypervectors.
func Bundle(hvs ...[]float32) []float32 {
	if len(hvs) == 0 {
		panic("hdc: Bundle of nothing")
	}
	d := len(hvs[0])
	out := make([]float32, d)
	for _, hv := range hvs {
		if len(hv) != d {
			panic(fmt.Sprintf("hdc: Bundle length mismatch %d vs %d", len(hv), d))
		}
		for j, v := range hv {
			out[j] += v
		}
	}
	return out
}

// Bind returns the element-wise product of two hypervectors.
func Bind(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hdc: Bind length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	for j := range out {
		out[j] = a[j] * b[j]
	}
	return out
}

// Permute returns the hypervector rotated right by k positions (k may be
// negative for a left rotation).
func Permute(hv []float32, k int) []float32 {
	d := len(hv)
	if d == 0 {
		return nil
	}
	k %= d
	if k < 0 {
		k += d
	}
	out := make([]float32, d)
	copy(out[k:], hv[:d-k])
	copy(out[:k], hv[d-k:])
	return out
}

// Sign thresholds a hypervector to bipolar ±1 (zero maps to -1, matching
// the bit-packed model convention).
func Sign(hv []float32) []float32 {
	out := make([]float32, len(hv))
	for j, v := range hv {
		if v > 0 {
			out[j] = 1
		} else {
			out[j] = -1
		}
	}
	return out
}

// Cosine returns the cosine similarity of two hypervectors.
func Cosine(a, b []float32) float32 {
	return tensor.CosineSimilarity(a, b)
}
