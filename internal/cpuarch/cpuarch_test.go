package cpuarch

import (
	"testing"
	"time"
)

func TestGEMMTimeScalesLinearly(t *testing.T) {
	s := MobileI5()
	t1 := s.GEMMTime(32, 600, 10000) - s.DispatchOverhead
	t2 := s.GEMMTime(64, 600, 10000) - s.DispatchOverhead
	ratio := float64(t2) / float64(t1)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("doubling m scaled time by %v, want ~2", ratio)
	}
}

func TestGEMMTimeZeroDims(t *testing.T) {
	s := MobileI5()
	if s.GEMMTime(0, 10, 10) != 0 || s.GEMMTime(10, 0, 10) != 0 {
		t.Fatal("degenerate GEMM should be free")
	}
}

func TestGEMMTimeMatchesRate(t *testing.T) {
	s := MobileI5()
	// 2*1000*1000*1000 = 2e9 FLOPs at 20 GFLOP/s = 100 ms.
	got := s.GEMMTime(1000, 1000, 1000) - s.DispatchOverhead
	want := 100 * time.Millisecond
	if got < want*99/100 || got > want*101/100 {
		t.Fatalf("GEMMTime = %v, want ~%v", got, want)
	}
}

func TestStreamTimeMatchesBandwidth(t *testing.T) {
	s := CortexA53RPi3()
	got := s.StreamTime(int(s.StreamBytesPerSec)) - s.DispatchOverhead
	if got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Fatalf("one bandwidth-second of data took %v", got)
	}
}

func TestPlatformRatios(t *testing.T) {
	i5 := MobileI5()
	pi := CortexA53RPi3()
	// Compute-bound ratio (GEMM) must be far smaller than the
	// memory-bound ratio (streaming): this asymmetry drives the
	// different training vs inference speedups in Table II.
	gemmRatio := float64(i5.GEMMFLOPS) / float64(pi.GEMMFLOPS)
	streamRatio := float64(i5.StreamBytesPerSec) / float64(pi.StreamBytesPerSec)
	if gemmRatio < 2 || gemmRatio > 4 {
		t.Fatalf("GEMM ratio %v outside plausible [2,4]", gemmRatio)
	}
	if streamRatio < 6 || streamRatio > 15 {
		t.Fatalf("stream ratio %v outside plausible [6,15]", streamRatio)
	}
	if streamRatio <= gemmRatio {
		t.Fatal("memory-bound gap must exceed compute-bound gap")
	}
}

func TestGEMMBelowPeak(t *testing.T) {
	for _, s := range []Spec{MobileI5(), CortexA53RPi3()} {
		// Effective GEMM rate must be below an optimistic peak bound:
		// cores × freq × 32 FLOPs/cycle.
		peak := float64(s.Cores) * s.FreqHz * 32
		if s.GEMMFLOPS >= peak {
			t.Fatalf("%s: effective %v ≥ peak bound %v", s.Name, s.GEMMFLOPS, peak)
		}
	}
}

func TestTanhTimePositiveAndMonotone(t *testing.T) {
	s := MobileI5()
	small := s.TanhTime(1000)
	big := s.TanhTime(1000000)
	if small <= 0 || big <= small {
		t.Fatalf("tanh times: %v, %v", small, big)
	}
	if s.TanhTime(0) != 0 {
		t.Fatal("empty tanh should be free")
	}
}

func TestAxpyQuantizeArgMax(t *testing.T) {
	s := MobileI5()
	if s.AxpyTime(10000) <= s.DispatchOverhead {
		t.Fatal("axpy unpriced")
	}
	if s.QuantizeTime(10000) <= s.DispatchOverhead {
		t.Fatal("quantize unpriced")
	}
	if s.ArgMaxTime(10000) <= s.DispatchOverhead {
		t.Fatal("argmax unpriced")
	}
	if s.AxpyTime(0) != 0 || s.QuantizeTime(0) != 0 || s.ArgMaxTime(0) != 0 {
		t.Fatal("degenerate passes should be free")
	}
}

func TestEncodingCostDominatedByGEMM(t *testing.T) {
	// For the paper's dimensions, encoding cost must be GEMM-dominated:
	// sanity check that tanh is a small fraction.
	s := MobileI5()
	gemm := s.GEMMTime(1, 600, 10000)
	tanh := s.TanhTime(10000)
	if tanh > gemm/2 {
		t.Fatalf("tanh (%v) not small vs GEMM (%v)", tanh, gemm)
	}
}

func TestInt8GEMMTimeCheaperThanFloat(t *testing.T) {
	// Same op count but a quarter of the operand traffic: int8 GEMM must
	// never price above the float product, and it collapses to ~equal when
	// both are compute-bound.
	for _, s := range []Spec{MobileI5(), CortexA53RPi3()} {
		if i8, f32 := s.Int8GEMMTime(8, 617, 2000), s.GEMMTime(8, 617, 2000); i8 > f32 {
			t.Fatalf("%s: int8 GEMM %v above float %v", s.Name, i8, f32)
		}
	}
	s := MobileI5()
	if s.Int8GEMMTime(0, 10, 10) != 0 || s.Int8GEMMTime(10, -1, 10) != 0 {
		t.Fatal("degenerate int8 GEMM dims should be free")
	}
	t1 := s.Int8GEMMTime(32, 600, 10000) - s.DispatchOverhead
	t2 := s.Int8GEMMTime(64, 600, 10000) - s.DispatchOverhead
	if ratio := float64(t2) / float64(t1); ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("doubling m scaled int8 GEMM by %v, want ~2", ratio)
	}
}

func TestLUTTimeMatchesBandwidth(t *testing.T) {
	s := MobileI5()
	elems := 1 << 20
	got := s.LUTTime(elems) - s.DispatchOverhead
	want := time.Duration(float64(2*elems) / s.StreamBytesPerSec * float64(time.Second))
	if got != want {
		t.Fatalf("LUT pass %v, want %v", got, want)
	}
	if s.LUTTime(0) != 0 || s.LUTTime(-5) != 0 {
		t.Fatal("empty LUT pass should be free")
	}
	// A LUT pass moves 2 bytes/element vs tanh's 8: it must be cheaper.
	if s.LUTTime(elems) >= s.TanhTime(elems) {
		t.Fatalf("LUT %v not cheaper than float tanh %v", s.LUTTime(elems), s.TanhTime(elems))
	}
}

func TestPopcountGEMMTime(t *testing.T) {
	s := MobileI5()
	if got := s.PopcountGEMMTime(0, 1024, 26); got != 0 {
		t.Fatalf("zero rows priced %v", got)
	}
	// Compute-bound regime: the word-op count over BitOpsPerSec, plus
	// dispatch. 64 rows x 26 classes x 160 words at 2.5e9 ops/s.
	m, dim, k := 64, 10000, 26
	words := (dim + 63) / 64
	ops := float64(m * k * words)
	want := s.DispatchOverhead + time.Duration(ops/s.BitOpsPerSec*float64(time.Second))
	if got := s.PopcountGEMMTime(m, dim, k); got != want {
		t.Fatalf("PopcountGEMMTime = %v, want %v", got, want)
	}
	// The packed similarity must undercut the int8 GEMM it replaces by a
	// wide margin at HDC shapes — that ratio is the point of the backend.
	int8 := s.Int8GEMMTime(m, dim, k)
	if got := s.PopcountGEMMTime(m, dim, k); got >= int8/4 {
		t.Fatalf("popcount %v not well under int8 GEMM %v", got, int8)
	}
	// Partial tail words round up: dim 65 prices as 2 words.
	if a, b := s.PopcountGEMMTime(1, 65, 2), s.PopcountGEMMTime(1, 128, 2); a != b {
		t.Fatalf("dim 65 priced %v, dim 128 %v; tail word must round up", a, b)
	}
}

func TestPopcountGEMMTimeFallbackRate(t *testing.T) {
	// A spec without a calibrated BitOpsPerSec derives one from GEMMFLOPS
	// rather than dividing by zero.
	s := MobileI5()
	s.BitOpsPerSec = 0
	got := s.PopcountGEMMTime(16, 1024, 26)
	if got <= s.DispatchOverhead {
		t.Fatalf("fallback pricing %v lost the compute term", got)
	}
	s.BitOpsPerSec = s.GEMMFLOPS / 16
	if want := s.PopcountGEMMTime(16, 1024, 26); got != want {
		t.Fatalf("fallback %v != explicit GEMMFLOPS/16 rate %v", got, want)
	}
}

func TestSignPackTime(t *testing.T) {
	s := MobileI5()
	if got := s.SignPackTime(0); got != 0 {
		t.Fatalf("zero elements priced %v", got)
	}
	want := time.Duration(4.125 * 16384 / s.StreamBytesPerSec * float64(time.Second))
	if got := s.SignPackTime(16384); got != want {
		t.Fatalf("SignPackTime = %v, want %v", got, want)
	}
	// Fused into the encode pass: no dispatch overhead of its own.
	if got := s.SignPackTime(1); got >= s.DispatchOverhead {
		t.Fatalf("SignPackTime(1) = %v includes a dispatch term", got)
	}
}
