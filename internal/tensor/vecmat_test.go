package tensor

import (
	"math"
	"testing"

	"hdcedge/internal/rng"
)

// vecMatShapes covers widths below and above the parallel threshold, odd
// widths, and feature counts that leave every remainder of the
// four-feature groups.
var vecMatShapes = []struct{ m, k int }{
	{1, 7}, {2, 33}, {3, 64}, {4, 100}, {5, 1023}, {6, 2048}, {7, 2049}, {9, 3000}, {27, 10000},
}

// vecMatInputs returns feature vectors for an m-feature shape: dense,
// all zero, and with zero features at the start, the end and in between.
func vecMatInputs(r *rng.RNG, m int) [][]float32 {
	dense := make([]float32, m)
	r.FillNormal(dense)
	sparse := append([]float32(nil), dense...)
	for i := range sparse {
		if i%3 == 0 || i == m-1 {
			sparse[i] = 0
		}
	}
	negZero := append([]float32(nil), dense...)
	negZero[0] = float32(math.Copysign(0, -1))
	return [][]float32{dense, make([]float32, m), sparse, negZero}
}

// TestVecMatMatchesOneFeaturePerPass pins VecMat bit for bit to the plain
// loop it replaced: one feature per pass over dst, ascending, zero
// features skipped.
func TestVecMatMatchesOneFeaturePerPass(t *testing.T) {
	r := rng.New(21)
	for _, sh := range vecMatShapes {
		a := New(Float32, sh.m, sh.k)
		r.FillNormal(a.F32)
		got := make([]float32, sh.k)
		want := make([]float32, sh.k)
		for vi, x := range vecMatInputs(r, sh.m) {
			for j := range want {
				want[j] = 0
			}
			for i, xv := range x {
				if xv == 0 {
					continue
				}
				for j, v := range a.F32[i*sh.k : (i+1)*sh.k] {
					want[j] += xv * v
				}
			}
			VecMat(got, x, a)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%dx%d input %d: dst[%d] = %v, want %v", sh.m, sh.k, vi, j, got[j], want[j])
				}
			}
		}
	}
}

// TestVecMatTanhMatchesVecMatThenTanh pins the fused encode pass bit for
// bit to its two-pass definition.
func TestVecMatTanhMatchesVecMatThenTanh(t *testing.T) {
	r := rng.New(22)
	for _, sh := range vecMatShapes {
		a := New(Float32, sh.m, sh.k)
		r.FillNormal(a.F32)
		got := make([]float32, sh.k)
		want := make([]float32, sh.k)
		for vi, x := range vecMatInputs(r, sh.m) {
			VecMat(want, x, a)
			TanhSlice(want)
			VecMatTanh(got, x, a)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%dx%d input %d: dst[%d] = %v, want %v", sh.m, sh.k, vi, j, got[j], want[j])
				}
			}
		}
	}
}

// TestMatMulMatchesOneFeaturePerPass pins MatMul bit for bit to the plain
// loop, row by row: one feature per pass over the output row, ascending,
// zero features skipped. The rows cycle through vecMatInputs' dense,
// all-zero, sparse and -0 vectors, and the row counts take MatMul's serial
// and parallel paths.
func TestMatMulMatchesOneFeaturePerPass(t *testing.T) {
	r := rng.New(23)
	for _, sh := range vecMatShapes {
		b := New(Float32, sh.m, sh.k)
		r.FillNormal(b.F32)
		inputs := vecMatInputs(r, sh.m)
		for _, rows := range []int{1, 2, 7, 33} {
			a := New(Float32, rows, sh.m)
			for i := 0; i < rows; i++ {
				copy(a.Row(i), inputs[i%len(inputs)])
			}
			got := New(Float32, rows, sh.k)
			MatMul(got, a, b)
			want := make([]float32, sh.k)
			for i := 0; i < rows; i++ {
				clear(want)
				for f, xv := range a.Row(i) {
					if xv == 0 {
						continue
					}
					for j, v := range b.Row(f) {
						want[j] += xv * v
					}
				}
				for j, w := range want {
					if g := got.F32[i*sh.k+j]; math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("%dx%d rows=%d: dst[%d,%d] = %v, want %v", sh.m, sh.k, rows, i, j, g, w)
					}
				}
			}
		}
	}
}
