package tensor

import "math"

// The host tanh kernel. Every float tanh in the repository (the HDC
// encoder, the float interpreter's TANH op) goes through TanhSlice, and
// its contract is bit-identity with the reference
//
//	float32(math.Tanh(float64(x)))
//
// for every float32 x. math.Tanh costs a full-precision float64 Exp per
// element, but a float32 result only needs enough precision to pick the
// float32 rounding. tanh32 therefore computes a cheap float64 estimate and
// applies Ziv's rounding test: when the estimate lies far enough from a
// float32 rounding boundary that both it and math.Tanh's own float64 result
// must round to the same float32, the estimate's rounding is returned;
// otherwise (about one input in 2^16 of the estimated range) it falls back
// to math.Tanh. Outside the estimated range the kernel reproduces
// math.Tanh's branches exactly:
//
//   - |x| < 0.625: math.Tanh's own rational approximation, same expression
//     and constants, so the float64 result is identical. (This mirrors the
//     pure-Go math.Tanh every GOARCH but s390x runs; s390x has an assembly
//     Tanh, where `make tanh-exhaustive` would have to be rerun.)
//   - |x| >= 9.5 (and ±Inf): tanh(9.5) = 1 - 1.1e-8 already rounds to a
//     float32 1 (the last float32 below 1 is 1 - 6e-8), so the result
//     saturates to ±1 exactly as the reference does.
//   - NaN: the reference itself, so the payload is whatever it keeps.

// math.Tanh's rational coefficients for |x| < 0.625 (Cephes tanh.c).
const (
	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3
)

const (
	// ln2/64 split as in math.Exp: the high part has 21 trailing zero
	// bits, so k·ln2Over64Hi is exact for every k the kernel forms.
	ln2Over64Hi = 6.93147180369123816490e-01 / 64
	ln2Over64Lo = 1.90821492927058770002e-10 / 64
	invLn2x64   = 64 / math.Ln2

	// The estimate t lies in [0.5, 1), where a float64 has 29 more
	// fraction bits than a float32. Those low 29 bits place t on the
	// float32 grid; 1<<28 is exactly a rounding midpoint. tanhZivMargin is
	// the exclusion half-width around it, in float64 ulps of t: the
	// estimate and math.Tanh each sit within a few ulps of the true tanh,
	// so a 2^12-ulp margin (relative 2^-41) leaves three orders of
	// magnitude of headroom while sending only 2^-16 of inputs to the
	// fallback.
	tanhLowBits   = 29
	tanhZivMargin = 1 << 12
)

// exp2Tab[j] holds the float64 bits of 2^(j/64).
var exp2Tab = func() (tab [64]uint64) {
	for j := range tab {
		tab[j] = math.Float64bits(math.Exp2(float64(j) / 64))
	}
	return tab
}()

// Float32 bit patterns of |x| thresholds. For non-NaN values the bits of
// |x| order like |x| itself, so the kernel branches on integers.
const (
	f32MinNormal   = 0x00800000
	f32RationalMax = 0x3f200000 // 0.625
	f32Saturate    = 0x41180000 // 9.5
	f32Inf         = 0x7f800000
)

// widen returns float64(x) for a normal float32 with bits b, by moving the
// fields instead of converting: CVTSS2SD writes only the low lane of its
// destination register, so in a loop it chains each element's conversion
// to the previous element's whole tanh and serializes the loop.
func widen(b uint32) float64 {
	return math.Float64frombits(uint64(b>>31)<<63 | (uint64(b&^(1<<31))<<29 + (1023-127)<<52))
}

// tanh32 returns float32(math.Tanh(float64(x))) bit for bit.
func tanh32(x float32) float32 {
	b := math.Float32bits(x)
	a := b &^ (1 << 31) // bits of |x|
	switch {
	case a < f32RationalMax:
		if a == 0 {
			return x
		}
		xf := float64(x) // zero or subnormal: rare, convert
		if a >= f32MinNormal {
			xf = widen(b)
		}
		s := xf * xf
		return float32(xf + xf*s*((tanhP0*s+tanhP1)*s+tanhP2)/(((s+tanhQ0)*s+tanhQ1)*s+tanhQ2))
	case a < f32Saturate:
		t := tanhEstimate(widen(a))
		low := math.Float64bits(t) & (1<<tanhLowBits - 1)
		if low-(1<<(tanhLowBits-1)-tanhZivMargin) <= 2*tanhZivMargin {
			break // too close to a float32 midpoint to decide
		}
		return math.Float32frombits(math.Float32bits(float32(t)) | b&(1<<31))
	case a <= f32Inf:
		return math.Float32frombits(0x3f800000 | b&(1<<31)) // ±1
	}
	// NaN, or a Ziv-test failure.
	return float32(math.Tanh(float64(x)))
}

// tanhEstimate returns 1 - 2/(exp(2z)+1) for z in [0.625, 9.5) to within a
// few float64 ulps. exp(2z) = 2^(k/64) · e^r with k = round(2z·64/ln2) and
// |r| <= ln2/128; 2^(k/64) comes from exp2Tab plus an exponent shift, and
// e^r from its degree-5 Taylor polynomial (truncation error < 4e-17).
func tanhEstimate(z float64) float64 {
	y := 2 * z
	k := int(y*invLn2x64 + 0.5) // y > 0: truncation rounds to nearest
	kf := float64(k)
	r := (y - kf*ln2Over64Hi) - kf*ln2Over64Lo
	p := 1 + r*(1+r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120)))))
	s := math.Float64frombits(exp2Tab[k&63]+uint64(k>>6)<<52) * p
	return 1 - 2/(s+1)
}

// TanhSlice applies tanh in place on a raw slice, bit-identical to
// float32(math.Tanh(float64(x))) per element. Elements are independent,
// so the parallel chunks produce bit-identical results to a serial pass.
func TanhSlice(xs []float32) {
	if parallelWorkers(len(xs), 4096) <= 1 {
		tanhBlock(xs)
		return
	}
	ParallelFor(len(xs), 4096, func(lo, hi int) {
		tanhBlock(xs[lo:hi])
	})
}

func tanhBlock(xs []float32) {
	for i, v := range xs {
		xs[i] = tanh32(v)
	}
}
