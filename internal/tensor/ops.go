package tensor

import (
	"fmt"
	"math"
)

// MatMul computes dst = a · b for 2-D float tensors, with a of shape
// [m, k] and b of shape [k, n]. dst must be a float tensor of shape [m, n].
// Rows are spread over workers, and each output row is computed by the
// same panel loop as VecMat, so row i of dst is bit-identical to
// VecMat(dst.Row(i), a.Row(i), b).
func MatMul(dst, a, b *Tensor) {
	checkMatMulShapes(dst, a, b)
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	// Hand each worker at least 2^16 multiply-adds, so small products run
	// inline instead of paying for goroutines.
	minRows := (1 << 16) / max(k*n, 1)
	ParallelFor(m, minRows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vecMatBlock(dst.F32[i*n:(i+1)*n], a.F32[i*k:(i+1)*k], b.F32, k, n, 0, n, false)
		}
	})
}

func checkMatMulShapes(dst, a, b *Tensor) {
	if a.DType != Float32 || b.DType != Float32 || dst.DType != Float32 {
		panic("tensor: MatMul requires float tensors")
	}
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	if a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dims mismatch %v x %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != a.Shape[0] || dst.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMul dst shape %v, want [%d %d]", dst.Shape, a.Shape[0], b.Shape[1]))
	}
}

// MatVec computes dst = a · x for a [m, k] float matrix and a length-k
// vector; dst must have length m.
func MatVec(dst []float32, a *Tensor, x []float32) {
	if a.DType != Float32 || len(a.Shape) != 2 {
		panic("tensor: MatVec requires a 2-D float matrix")
	}
	m, k := a.Shape[0], a.Shape[1]
	if len(x) != k || len(dst) != m {
		panic(fmt.Sprintf("tensor: MatVec dims: matrix %v, x %d, dst %d", a.Shape, len(x), len(dst)))
	}
	for i := 0; i < m; i++ {
		row := a.F32[i*k : (i+1)*k]
		var sum float32
		for j, v := range row {
			sum += v * x[j]
		}
		dst[i] = sum
	}
}

// VecMat computes dst = x · a for a length-m vector and an [m, k] float
// matrix; dst must have length k. This is the encoding primitive
// E = F · B with B laid out feature-major.
func VecMat(dst []float32, x []float32, a *Tensor) {
	vecMat(dst, x, a, false)
}

// VecMatTanh computes dst = tanh(x · a), bit-identical to VecMat followed
// by TanhSlice, in one parallel pass: each worker applies tanh to its own
// column block while the block is still in cache. This is the non-linear
// encoding E = tanh(F · B).
func VecMatTanh(dst []float32, x []float32, a *Tensor) {
	vecMat(dst, x, a, true)
}

// VecMatSerial is VecMat on the calling goroutine: it starts no workers
// and allocates nothing, for callers that already spread rows over
// workers themselves (the bin backend's encode blocks).
func VecMatSerial(dst []float32, x []float32, a *Tensor) {
	m, k := checkVecMat(dst, x, a)
	vecMatBlock(dst, x, a.F32, m, k, 0, k, false)
}

func checkVecMat(dst, x []float32, a *Tensor) (m, k int) {
	if a.DType != Float32 || len(a.Shape) != 2 {
		panic("tensor: VecMat requires a 2-D float matrix")
	}
	m, k = a.Shape[0], a.Shape[1]
	if len(x) != m || len(dst) != k {
		panic(fmt.Sprintf("tensor: VecMat dims: matrix %v, x %d, dst %d", a.Shape, len(x), len(dst)))
	}
	return m, k
}

func vecMat(dst []float32, x []float32, a *Tensor, tanh bool) {
	m, k := checkVecMat(dst, x, a)
	// Parallelize over disjoint column blocks: every dst[j] is owned by
	// exactly one worker and accumulates its contributions in the same
	// ascending-i order (with the same xv == 0 skips) as the serial loop,
	// so the float results are bit-identical regardless of worker count.
	// Small widths skip ParallelFor entirely — the chunk closure escapes
	// to the heap, and streaming callers (hdc.AdaptWith) need this path
	// allocation-free.
	if parallelWorkers(k, 1024) <= 1 {
		vecMatBlock(dst, x, a.F32, m, k, 0, k, tanh)
		return
	}
	ParallelFor(k, 1024, func(j0, j1 int) {
		vecMatBlock(dst, x, a.F32, m, k, j0, j1, tanh)
	})
}

// vecMatBlock accumulates the [j0, j1) column block of dst = x · a, then
// applies tanh to it when asked. It is the one loop that computes x · B
// for the float projection (VecMat, VecMatTanh, VecMatSerial, MatMul), so
// the summation order is decided here alone: each output starts at zero
// and takes its contributions one rounded add at a time in ascending
// feature order, zero features skipped, as a one-feature-per-pass loop
// does. It adds four non-zero features per pass over the block; the sums
// are bit-identical to the one-feature-per-pass loop.
func vecMatBlock(dst, x, af []float32, m, k, j0, j1 int, tanh bool) {
	out := dst[j0:j1]
	for j := range out {
		out[j] = 0
	}
	row := func(i int) []float32 { return af[i*k+j0 : i*k+j1 : i*k+j1] }
	var idx [4]int
	for i := 0; i < m; {
		n := 0
		for ; i < m && n < len(idx); i++ {
			if x[i] != 0 {
				idx[n] = i
				n++
			}
		}
		if n < len(idx) {
			for _, f := range idx[:n] {
				xv := x[f]
				for j, v := range row(f)[:len(out)] {
					out[j] += xv * v
				}
			}
			break
		}
		x0, x1, x2, x3 := x[idx[0]], x[idx[1]], x[idx[2]], x[idx[3]]
		b0, b1, b2, b3 := row(idx[0]), row(idx[1]), row(idx[2]), row(idx[3])
		b0, b1, b2, b3 = b0[:len(out)], b1[:len(out)], b2[:len(out)], b3[:len(out)]
		for j := range out {
			s := out[j] + x0*b0[j]
			s += x1 * b1[j]
			s += x2 * b2[j]
			s += x3 * b3[j]
			out[j] = s
		}
	}
	if tanh {
		tanhBlock(out)
	}
}

// Transpose returns the transpose of a 2-D tensor (float or int8).
func Transpose(t *Tensor) *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	r, c := t.Shape[0], t.Shape[1]
	out := New(t.DType, c, r)
	if t.Quant != nil {
		q := *t.Quant
		out.Quant = &q
	}
	switch t.DType {
	case Float32:
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				out.F32[j*r+i] = t.F32[i*c+j]
			}
		}
	case Int8:
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				out.I8[j*r+i] = t.I8[i*c+j]
			}
		}
	default:
		panic(fmt.Sprintf("tensor: Transpose unsupported dtype %v", t.DType))
	}
	return out
}

// Axpy computes y += alpha * x over raw float slices of equal length.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Dot returns the inner product of two equal-length float slices.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var sum float32
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// Norm returns the Euclidean norm of a float slice.
func Norm(a []float32) float32 {
	var sum float64
	for _, v := range a {
		sum += float64(v) * float64(v)
	}
	return float32(math.Sqrt(sum))
}

// CosineSimilarity returns the cosine of the angle between two vectors,
// or 0 when either has zero norm.
func CosineSimilarity(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// ArgMax returns the index of the largest element of a float slice, or -1
// for an empty slice. Ties resolve to the lowest index, matching the
// paper's arg max over class scores.
func ArgMax(xs []float32) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// Scale multiplies a float tensor by alpha in place.
func Scale(t *Tensor, alpha float32) {
	if t.DType != Float32 {
		panic("tensor: Scale requires a float tensor")
	}
	for i := range t.F32 {
		t.F32[i] *= alpha
	}
}

// HStack concatenates 2-D float tensors horizontally (equal row counts).
// It is the bagging fusion primitive for base-hypervector matrices.
func HStack(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: HStack of nothing")
	}
	rows := ts[0].Shape[0]
	cols := 0
	for _, t := range ts {
		if t.DType != Float32 || len(t.Shape) != 2 {
			panic("tensor: HStack requires 2-D float tensors")
		}
		if t.Shape[0] != rows {
			panic("tensor: HStack row mismatch")
		}
		cols += t.Shape[1]
	}
	out := New(Float32, rows, cols)
	off := 0
	for _, t := range ts {
		c := t.Shape[1]
		for r := 0; r < rows; r++ {
			copy(out.F32[r*cols+off:r*cols+off+c], t.F32[r*c:(r+1)*c])
		}
		off += c
	}
	return out
}
