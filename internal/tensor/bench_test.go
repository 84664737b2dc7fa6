package tensor

import (
	"testing"

	"hdcedge/internal/rng"
)

func benchMatrix(r *rng.RNG, rows, cols int) *Tensor {
	t := New(Float32, rows, cols)
	r.FillNormal(t.F32)
	return t
}

func BenchmarkMatMulEncodeShape(b *testing.B) {
	// The encoding GEMM at functional-experiment scale: [32, 617]·[617, 2000].
	r := rng.New(1)
	a := benchMatrix(r, 32, 617)
	w := benchMatrix(r, 617, 2000)
	c := New(Float32, 32, 2000)
	b.SetBytes(int64(a.Bytes() + w.Bytes() + c.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, a, w)
	}
}

func BenchmarkMatMulSimilarityShape(b *testing.B) {
	// The similarity GEMM: [256, 2000]·[2000, 26].
	r := rng.New(2)
	a := benchMatrix(r, 256, 2000)
	w := benchMatrix(r, 2000, 26)
	c := New(Float32, 256, 26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, a, w)
	}
}

func BenchmarkVecMat(b *testing.B) {
	r := rng.New(3)
	a := benchMatrix(r, 617, 2000)
	x := make([]float32, 617)
	r.FillNormal(x)
	dst := make([]float32, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecMat(dst, x, a)
	}
}

// BenchmarkTanhSlice times one d=10,000 encode's tanh. Inputs are N(0, 2²)
// like an encoder pre-activation and are restored each iteration (tanh in
// place would otherwise shrink them all into the rational branch).
func BenchmarkTanhSlice(b *testing.B) {
	r := rng.New(4)
	src := make([]float32, 10000)
	r.FillNormal(src)
	for i := range src {
		src[i] *= 2
	}
	xs := make([]float32, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		TanhSlice(xs)
	}
}

func BenchmarkQuantizeTensor(b *testing.B) {
	r := rng.New(5)
	src := benchMatrix(r, 32, 2000)
	q := ChooseQuantParams(-4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantize(src, q)
	}
}

func BenchmarkAxpyHypervector(b *testing.B) {
	r := rng.New(6)
	x := make([]float32, 10000)
	y := make([]float32, 10000)
	r.FillNormal(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(1, x, y)
	}
}

func BenchmarkDotHypervector(b *testing.B) {
	r := rng.New(7)
	x := make([]float32, 10000)
	y := make([]float32, 10000)
	r.FillNormal(x)
	r.FillNormal(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}
