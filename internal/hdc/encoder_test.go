package hdc

import (
	"math"
	"testing"
	"testing/quick"

	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

func TestEncoderShape(t *testing.T) {
	e := NewEncoder(10, 500, true, rng.New(1))
	if e.Features() != 10 || e.Dim() != 500 {
		t.Fatalf("encoder dims %d×%d", e.Features(), e.Dim())
	}
}

func TestEncoderPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero features")
		}
	}()
	NewEncoder(0, 10, true, rng.New(1))
}

func TestBaseHypervectorsNearOrthogonal(t *testing.T) {
	// The paper relies on E[Bi · Bj] ≈ 0 for i ≠ j in high dimension.
	e := NewEncoder(16, 10000, true, rng.New(2))
	for i := 0; i < e.Features(); i++ {
		for j := i + 1; j < e.Features(); j++ {
			cos := tensor.CosineSimilarity(e.Base.Row(i), e.Base.Row(j))
			if math.Abs(float64(cos)) > 0.05 {
				t.Fatalf("bases %d,%d cosine %v; want near-orthogonal", i, j, cos)
			}
		}
	}
}

func TestBaseHypervectorsStandardNormal(t *testing.T) {
	e := NewEncoder(4, 10000, true, rng.New(3))
	var sum, sumSq float64
	for _, v := range e.Base.F32 {
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	n := float64(len(e.Base.F32))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("base stats mean=%v var=%v, want ~N(0,1)", mean, variance)
	}
}

func TestEncodeMatchesDefinition(t *testing.T) {
	// E = tanh(Σ fᵢ·Bᵢ), verified element-wise against a direct sum.
	e := NewEncoder(3, 64, true, rng.New(4))
	f := []float32{0.5, -1.25, 2}
	got := make([]float32, 64)
	e.Encode(got, f)
	for j := 0; j < 64; j++ {
		var want float64
		for i := 0; i < 3; i++ {
			want += float64(f[i]) * float64(e.Base.Row(i)[j])
		}
		want = math.Tanh(want)
		if math.Abs(float64(got[j])-want) > 1e-5 {
			t.Fatalf("elem %d: %v, want %v", j, got[j], want)
		}
	}
}

func TestEncodeLinearSkipsTanh(t *testing.T) {
	r := rng.New(5)
	lin := NewEncoder(3, 32, false, r)
	nl := &Encoder{Base: lin.Base.Clone(), Nonlinear: true}
	f := []float32{2, -3, 1}
	a := make([]float32, 32)
	b := make([]float32, 32)
	lin.Encode(a, f)
	nl.Encode(b, f)
	for j := range a {
		if math.Abs(float64(b[j])-math.Tanh(float64(a[j]))) > 1e-5 {
			t.Fatalf("nonlinear encode is not tanh of linear at %d", j)
		}
	}
}

// TestEncodeFusedMatchesVecMatThenTanh pins the one-pass non-linear
// Encode bit for bit to VecMat followed by TanhSlice, at the paper's
// width and with zero (bagging-masked) features.
func TestEncodeFusedMatchesVecMatThenTanh(t *testing.T) {
	e := NewEncoder(27, DefaultDim, true, rng.New(12))
	r := rng.New(13)
	f := make([]float32, 27)
	r.FillNormal(f)
	for _, i := range []int{0, 5, 6, 26} {
		f[i] = 0
	}
	got := make([]float32, DefaultDim)
	want := make([]float32, DefaultDim)
	for _, x := range [][]float32{f, make([]float32, 27)} {
		e.Encode(got, x)
		tensor.VecMat(want, x, e.Base)
		tensor.TanhSlice(want)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("elem %d: %v, want %v", j, got[j], want[j])
			}
		}
	}
}

func TestEncodeBatchMatchesSingle(t *testing.T) {
	e := NewEncoder(8, 128, true, rng.New(6))
	r := rng.New(7)
	x := tensor.New(tensor.Float32, 5, 8)
	r.FillNormal(x.F32)
	batch := e.EncodeBatch(x)
	single := make([]float32, 128)
	for i := 0; i < 5; i++ {
		e.Encode(single, x.Row(i))
		for j := range single {
			if math.Abs(float64(batch.Row(i)[j]-single[j])) > 1e-4 {
				t.Fatalf("row %d elem %d: batch %v, single %v", i, j, batch.Row(i)[j], single[j])
			}
		}
	}
}

func TestEncodeOutputBounded(t *testing.T) {
	e := NewEncoder(20, 256, true, rng.New(8))
	f := make([]float32, 20)
	rng.New(9).FillUniform(f, -10, 10)
	out := make([]float32, 256)
	e.Encode(out, f)
	for _, v := range out {
		if v < -1 || v > 1 {
			t.Fatalf("tanh output out of (-1,1): %v", v)
		}
	}
}

func TestMaskFeatures(t *testing.T) {
	e := NewEncoder(4, 16, true, rng.New(10))
	keep := []bool{true, false, true, false}
	e.MaskFeatures(keep)
	for i, k := range keep {
		row := e.Base.Row(i)
		zero := true
		for _, v := range row {
			if v != 0 {
				zero = false
			}
		}
		if k && zero {
			t.Fatalf("kept feature %d was zeroed", i)
		}
		if !k && !zero {
			t.Fatalf("masked feature %d not zeroed", i)
		}
	}
	// A masked feature must not influence encodings.
	a := make([]float32, 16)
	b := make([]float32, 16)
	e.Encode(a, []float32{1, 5, 2, -3})
	e.Encode(b, []float32{1, -9, 2, 100})
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("masked features leaked into encoding")
		}
	}
}

func TestMaskFeaturesPanicsOnLength(t *testing.T) {
	e := NewEncoder(4, 8, true, rng.New(11))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad mask length")
		}
	}()
	e.MaskFeatures([]bool{true})
}

// Property: encoding is deterministic and bounded for arbitrary inputs.
func TestQuickEncodeDeterministicBounded(t *testing.T) {
	e := NewEncoder(6, 64, true, rng.New(12))
	f := func(raw [6]int16) bool {
		in := make([]float32, 6)
		for i, v := range raw {
			in[i] = float32(v) / 1000
		}
		a := make([]float32, 64)
		b := make([]float32, 64)
		e.Encode(a, in)
		e.Encode(b, in)
		for j := range a {
			if a[j] != b[j] || a[j] < -1 || a[j] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: similar inputs encode to similar hypervectors, dissimilar
// inputs to dissimilar ones (locality preservation of the projection).
func TestEncodeLocality(t *testing.T) {
	e := NewEncoder(32, 4096, true, rng.New(13))
	r := rng.New(14)
	base := make([]float32, 32)
	r.FillNormal(base)
	near := make([]float32, 32)
	far := make([]float32, 32)
	copy(near, base)
	near[0] += 0.01
	r.FillNormal(far)

	eb := make([]float32, 4096)
	en := make([]float32, 4096)
	ef := make([]float32, 4096)
	e.Encode(eb, base)
	e.Encode(en, near)
	e.Encode(ef, far)
	simNear := tensor.CosineSimilarity(eb, en)
	simFar := tensor.CosineSimilarity(eb, ef)
	if simNear < 0.99 {
		t.Fatalf("near input similarity %v, want ~1", simNear)
	}
	if simFar > simNear-0.1 {
		t.Fatalf("far input similarity %v not separated from near %v", simFar, simNear)
	}
}
