package binhd

import (
	"testing"

	"hdcedge/internal/cpuarch"
	"hdcedge/internal/hdc"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// oracleProjection returns row x's projection onto base column j in the
// order tensor's float projection documents: ascending features, one
// rounded add per feature, starting from zero. (The kernel skips zero
// features; adding their zero products leaves the sum unchanged.)
func oracleProjection(x []float32, base []float32, d, j int) float32 {
	var s float32
	for i, xv := range x {
		s += xv * base[i*d+j]
	}
	return s
}

// oracleScores computes one row's agreement with every class the naive
// way: unpacked ±1 signs (zero thresholds to −1), counted element by
// element, and the lowest-index argmax.
func oracleScores(x []float32, base []float32, d int, classSigns [][]int8) (scores []int32, pred int) {
	q := make([]int8, d)
	for j := range q {
		q[j] = -1
		if oracleProjection(x, base, d, j) > 0 {
			q[j] = 1
		}
	}
	scores = make([]int32, len(classSigns))
	for c, cs := range classSigns {
		for j := range q {
			if q[j] == cs[j] {
				scores[c]++
			}
		}
		if scores[c] > scores[pred] {
			pred = c
		}
	}
	return scores, pred
}

// TestDifferentialOracle checks the fused packed kernel's scores and
// predictions against oracleScores over randomized shapes: feature counts
// with every remainder of the kernel's four-feature passes (and fewer
// features than one pass), widths that are not multiples of 64, odd capacities, zero
// features and all-zero rows, and every row prefix InvokeBatch(rows) plus the full batch.
func TestDifferentialOracle(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(12)
		d := 1 + r.Intn(300)
		if trial%8 == 0 {
			d = 64 * (1 + r.Intn(3))
		}
		k := 2 + r.Intn(5)
		capacity := 1 + r.Intn(9)

		base := tensor.New(tensor.Float32, n, d)
		r.FillNormal(base.F32)
		classSigns := make([][]int8, k)
		words := make([][]uint64, k)
		for c := range classSigns {
			classSigns[c] = make([]int8, d)
			words[c] = make([]uint64, (d+63)/64)
			for j := range classSigns[c] {
				classSigns[c][j] = -1
				if r.Intn(2) == 1 {
					classSigns[c][j] = 1
					words[c][j/64] |= 1 << uint(j%64)
				}
			}
		}
		bm := &hdc.BipolarModel{Encoder: &hdc.Encoder{Base: base, Nonlinear: true}, Dim: d, Words: words}
		b, err := New(cpuarch.MobileI5(), bm, capacity)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]float32, capacity*n)
		r.FillNormal(in)
		for i := range in {
			if r.Intn(5) == 0 {
				in[i] = 0
			}
		}
		if trial%3 == 0 {
			// An all-zero row projects to zero everywhere: every sign is −1.
			row := r.Intn(capacity)
			clear(in[row*n : (row+1)*n])
		}

		for rows := 0; rows <= capacity; rows++ {
			copy(b.Input(0).F32, in)
			if _, err := b.InvokeBatch(rows); err != nil {
				t.Fatal(err)
			}
			occupied := rows
			if occupied == 0 {
				occupied = capacity
			}
			for row := 0; row < occupied; row++ {
				want, wantPred := oracleScores(in[row*n:(row+1)*n], base.F32, d, classSigns)
				got := b.Output(1).I32[row*k : (row+1)*k]
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("n%d d%d k%d cap%d rows=%d row %d class %d: score %d, oracle %d",
							n, d, k, capacity, rows, row, c, got[c], want[c])
					}
				}
				if p := int(b.Output(0).I32[row]); p != wantPred {
					t.Fatalf("n%d d%d k%d cap%d rows=%d row %d: pred %d, oracle %d",
						n, d, k, capacity, rows, row, p, wantPred)
				}
			}
		}
	}
}
