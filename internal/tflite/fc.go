package tflite

import (
	"fmt"
	"sync"

	"hdcedge/internal/tensor"
)

// The two FULLY_CONNECTED kernels, float and int8, shared by the
// interpreter and the Edge TPU simulator. Both walk the weights in 4-unit
// panels in the outer loop and stream the batch rows past each panel, so
// one pass over a panel's rows serves every sample. Weights are read where
// they reside; nothing is packed or folded at compile time, so fault
// injection and integrity scrubbing act on exactly the bytes the kernels
// read.

// panelUnits is the number of output units one kernel pass computes.
const panelUnits = 4

// panelMinPerWorker is the fewest panels worth a ParallelFor worker.
const panelMinPerWorker = 16

// laneDepth is the longest depth whose two-lane int8 partial sums are
// exact: with |in - zpIn| <= 255 and |w| <= 128 a product is at most 32,640
// in magnitude, and 65,536 of them stay below 2^31, so the low lane never
// carries into the high one.
const laneDepth = 1 << 16

// panel returns the four weight rows and biases of the panel at unit u. A
// tail panel repeats its last unit, so every panel runs the same four-row
// kernel; only the first n units are real.
func panel[W, B any](w []W, bias []B, u, units, depth int) (rows [panelUnits][]W, b [panelUnits]B, n int) {
	for j := range rows {
		v := min(u+j, units-1)
		rows[j], b[j] = w[v*depth:(v+1)*depth], bias[v]
	}
	return rows, b, min(panelUnits, units-u)
}

// fullyConnectedFloat computes out[b, u] = Σ_k in[b, k]·w[u, k] + bias[u].
// Each output sums its products in ascending k starting from the bias, so
// the blocking never changes a result bit.
func fullyConnectedFloat(in, w, bias, out *tensor.Tensor) error {
	if w.DType != tensor.Float32 || bias.DType != tensor.Float32 {
		return fmt.Errorf("float FC with %v weights / %v bias", w.DType, bias.DType)
	}
	batch, k := in.Shape[0], in.Shape[1]
	units := w.Shape[0]
	if w.Shape[1] != k {
		return fmt.Errorf("FC depth mismatch: input %v, weights %v", in.Shape, w.Shape)
	}
	if len(bias.F32) != units {
		return fmt.Errorf("FC bias length %d, want %d", len(bias.F32), units)
	}
	panels := (units + panelUnits - 1) / panelUnits
	tensor.ParallelFor(panels, panelMinPerWorker, func(p0, p1 int) {
		for p := p0; p < p1; p++ {
			u := p * panelUnits
			wr, b0, n := panel(w.F32, bias.F32, u, units, k)
			for b := 0; b < batch; b++ {
				s := b0
				s[0], s[1], s[2], s[3] = dotFloat4(in.F32[b*k:(b+1)*k], wr[0], wr[1], wr[2], wr[3], s[0], s[1], s[2], s[3])
				copy(out.F32[b*units+u:][:n], s[:n])
			}
		}
	})
	return nil
}

// dotFloat4 adds Σ x[i]·w_j[i] to s_j for four weight rows, in ascending i.
func dotFloat4(x, w0, w1, w2, w3 []float32, s0, s1, s2, s3 float32) (float32, float32, float32, float32) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for i, v := range x {
		s0 += v * w0[i]
		s1 += v * w1[i]
		s2 += v * w2[i]
		s3 += v * w3[i]
	}
	return s0, s1, s2, s3
}

// fcScratch holds one invoke's zero-point-corrected input: row pairs packed
// two lanes to an int64, and the odd last row as int32.
type fcScratch struct {
	pairs []int64
	odd   []int32
}

var fcScratchPool = sync.Pool{New: func() any { return new(fcScratch) }}

// FullyConnectedInt8 is the one int8 FULLY_CONNECTED kernel, shared by the
// interpreter and the Edge TPU simulator. It follows the TFLite reference
// quantized kernel: acc = Σ (in - zpIn)·w + bias in int32, then
// out = clamp(zpOut + rescale(acc)). Weights must be symmetric (zero point
// 0, the MXU's accumulate path), so there is no weight-side correction term.
//
// The input zero point is subtracted once per invoke, and rows b and b+1
// are packed as (in_b - zpIn) + (in_{b+1} - zpIn)·2^32, so one int64
// multiply by a weight yields both rows' products. Each depth chunk of at
// most laneDepth is split back into its two exact int32 lane sums, which
// are added to the bias with int32 wrap-around: the result equals the
// reference's int32 accumulation exactly (both are the true sum mod 2^32).
// An odd last row, a single-row query included, takes a plain int32 pass.
func FullyConnectedInt8(in, w, bias, out *tensor.Tensor) error {
	if in.DType != tensor.Int8 || w.DType != tensor.Int8 || bias.DType != tensor.Int32 || out.DType != tensor.Int8 {
		return fmt.Errorf("int8 FC requires int8 tensors with int32 bias, got %v/%v/%v/%v",
			in.DType, w.DType, bias.DType, out.DType)
	}
	if in.Quant == nil || w.Quant == nil || out.Quant == nil {
		return fmt.Errorf("int8 FC missing quantization parameters")
	}
	if w.Quant.ZeroPoint != 0 {
		return fmt.Errorf("int8 FC weights must be symmetric, zero point %d", w.Quant.ZeroPoint)
	}
	batch, k := in.Shape[0], in.Shape[1]
	units := w.Shape[0]
	if w.Shape[1] != k {
		return fmt.Errorf("FC depth mismatch: input %v, weights %v", in.Shape, w.Shape)
	}
	qm, err := QuantizeMultiplier(in.Quant.Scale * w.Quant.Scale / out.Quant.Scale)
	if err != nil {
		return err
	}
	zpOut := out.Quant.ZeroPoint

	s := fcScratchPool.Get().(*fcScratch)
	defer fcScratchPool.Put(s)
	pairs, odd := s.pack(in.I8, batch, k, in.Quant.ZeroPoint)

	panels := (units + panelUnits - 1) / panelUnits
	tensor.ParallelFor(panels, panelMinPerWorker, func(p0, p1 int) {
		for p := p0; p < p1; p++ {
			u := p * panelUnits
			wr, b0, n := panel(w.I8, bias.I32, u, units, k)
			for pr := 0; pr < batch/2; pr++ {
				lo, hi := b0, b0
				for c := 0; c < k; c += laneDepth {
					c1 := min(c+laneDepth, k)
					a0, a1, a2, a3 := dotPairs4(pairs[pr*k+c:pr*k+c1],
						wr[0][c:c1], wr[1][c:c1], wr[2][c:c1], wr[3][c:c1])
					for j, a := range [panelUnits]int64{a0, a1, a2, a3} {
						l := int32(a)
						lo[j] += l
						hi[j] += int32((a - int64(l)) >> 32)
					}
				}
				requantize(out.I8[2*pr*units+u:][:n], &lo, qm, zpOut)
				requantize(out.I8[(2*pr+1)*units+u:][:n], &hi, qm, zpOut)
			}
			if batch%2 == 1 {
				acc := b0
				acc[0], acc[1], acc[2], acc[3] = dotRow4(odd, wr[0], wr[1], wr[2], wr[3],
					acc[0], acc[1], acc[2], acc[3])
				requantize(out.I8[(batch-1)*units+u:][:n], &acc, qm, zpOut)
			}
		}
	})
	return nil
}

// requantize writes the int8 outputs of the accumulators acc[:len(o)].
func requantize(o []int8, acc *[panelUnits]int32, qm QuantizedMultiplier, zpOut int32) {
	for j := range o {
		o[j] = clampInt8(zpOut + qm.Apply(acc[j]))
	}
}

// pack writes the zero-point-corrected rows of in ([batch, k]) into the
// scratch: row pairs two lanes to an int64, then the odd last row (empty
// when batch is even).
func (s *fcScratch) pack(in []int8, batch, k int, zp int32) (pairs []int64, odd []int32) {
	np := batch / 2
	if cap(s.pairs) < np*k {
		s.pairs = make([]int64, np*k)
	}
	pairs = s.pairs[:np*k]
	for pr := 0; pr < np; pr++ {
		x0, x1 := in[2*pr*k:(2*pr+1)*k], in[(2*pr+1)*k:(2*pr+2)*k]
		dst := pairs[pr*k : (pr+1)*k]
		for i := range dst {
			dst[i] = int64(int32(x0[i])-zp) + int64(int32(x1[i])-zp)<<32
		}
	}
	if batch%2 == 0 {
		return pairs, s.odd[:0]
	}
	if cap(s.odd) < k {
		s.odd = make([]int32, k)
	}
	odd = s.odd[:k]
	last := in[(batch-1)*k : batch*k]
	for i := range odd {
		odd[i] = int32(last[i]) - zp
	}
	return pairs, odd
}

// dotPairs4 returns Σ w_j[i]·x[i] for four weight rows over packed row
// pairs; each int64 sum holds both rows' lane sums.
func dotPairs4(x []int64, w0, w1, w2, w3 []int8) (a0, a1, a2, a3 int64) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for i, v := range x {
		a0 += int64(w0[i]) * v
		a1 += int64(w1[i]) * v
		a2 += int64(w2[i]) * v
		a3 += int64(w3[i]) * v
	}
	return a0, a1, a2, a3
}

// dotRow4 adds Σ x[i]·w_j[i] to a_j for four weight rows in int32, wrapping
// as the reference kernel's accumulator does.
func dotRow4(x []int32, w0, w1, w2, w3 []int8, a0, a1, a2, a3 int32) (int32, int32, int32, int32) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for i, v := range x {
		a0 += v * int32(w0[i])
		a1 += v * int32(w1[i])
		a2 += v * int32(w2[i])
		a3 += v * int32(w3[i])
	}
	return a0, a1, a2, a3
}
