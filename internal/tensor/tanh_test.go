package tensor

import (
	"math"
	"testing"
)

// refTanh is the contract TanhSlice must meet bit for bit.
func refTanh(x float32) float32 { return float32(math.Tanh(float64(x))) }

// checkTanhRange runs TanhSlice over the float32 bit patterns
// lo, lo+step, … below hi (as uint64 so hi may be 2^32) and reports every
// bitwise mismatch against refTanh, through the same chunked path callers
// take.
func checkTanhRange(t *testing.T, lo, hi, step uint64) (checked int) {
	t.Helper()
	const chunk = 1 << 14
	in := make([]float32, 0, chunk)
	out := make([]float32, 0, chunk)
	flush := func() {
		out = append(out[:0], in...)
		TanhSlice(out)
		for i, x := range in {
			if math.Float32bits(out[i]) != math.Float32bits(refTanh(x)) {
				t.Errorf("tanh(%v) [bits %#08x] = %v [%#08x], want %v [%#08x]", x, math.Float32bits(x),
					out[i], math.Float32bits(out[i]), refTanh(x), math.Float32bits(refTanh(x)))
			}
		}
		checked += len(in)
		in = in[:0]
	}
	for b := lo; b < hi; b += step {
		in = append(in, math.Float32frombits(uint32(b)))
		if len(in) == chunk {
			flush()
			if t.Failed() {
				return checked
			}
		}
	}
	flush()
	return checked
}

// TestTanhSliceStridedSweep checks a strided sample of all 2^32 inputs, a
// denser one of the estimated range, and dense windows inside it and at
// its two boundaries. `make
// tanh-exhaustive` checks every input.
func TestTanhSliceStridedSweep(t *testing.T) {
	n := checkTanhRange(t, 0, 1<<32, 1021)
	bits := func(f float32) uint64 { return uint64(math.Float32bits(f)) }
	for _, sign := range []uint64{0, 1 << 31} {
		// Every eleventh input of the estimated range, where the Ziv test
		// decides.
		n += checkTanhRange(t, sign|f32RationalMax, sign|f32Saturate, 11)
		for _, w := range []struct{ lo, hi uint64 }{
			{bits(0.625) - 1<<14, bits(0.625) + 1<<16}, // rational → estimate switch
			{bits(2.5), bits(2.5) + 1<<16},             // middle of the estimate
			{bits(9.5) - 1<<16, bits(9.5) + 1<<14},     // estimate → saturation
		} {
			n += checkTanhRange(t, sign|w.lo, sign|w.hi, 1)
		}
	}
	t.Logf("%d inputs bit-identical", n)
}

func TestTanhSliceEdgeCases(t *testing.T) {
	next := func(f float32, dir float32) float32 { return math.Nextafter32(f, dir) }
	inf := float32(math.Inf(1))
	var xs []float32
	for _, x := range []float32{
		0,
		math.SmallestNonzeroFloat32,           // smallest subnormal
		math.Float32frombits(0x007fffff),      // largest subnormal
		math.Float32frombits(0x00800000),      // smallest normal
		next(0.625, 0), 0.625, next(0.625, 1), // rational / estimate boundary
		next(9.5, 0), 9.5, next(9.5, 100), // estimate / saturation boundary
		1, 44.5, math.MaxFloat32, inf,
	} {
		xs = append(xs, x, -x)
	}
	// NaNs: quiet and signalling, both signs, with payloads.
	for _, b := range []uint32{0x7fc00000, 0x7fc00001, 0x7fa5a5a5, 0x7f800001, 0xffc12345, 0xff800001} {
		xs = append(xs, math.Float32frombits(b))
	}
	got := append([]float32(nil), xs...)
	TanhSlice(got)
	for i, x := range xs {
		if g, w := math.Float32bits(got[i]), math.Float32bits(refTanh(x)); g != w {
			t.Errorf("tanh(%v) [bits %#08x] = %#08x, want %#08x", x, math.Float32bits(x), g, w)
		}
	}
	// The special values the reference defines.
	if math.Float32bits(got[1]) != 1<<31 {
		t.Errorf("tanh(-0) = %v, want -0", got[1])
	}
	for i, x := range xs {
		if math.IsInf(float64(x), 0) && got[i] != float32(math.Copysign(1, float64(x))) {
			t.Errorf("tanh(%v) = %v", x, got[i])
		}
		if x != x && got[i] == got[i] {
			t.Errorf("tanh(NaN %#08x) = %v, want NaN", math.Float32bits(x), got[i])
		}
	}
}
