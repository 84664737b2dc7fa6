package hdc

import (
	"testing"
	"testing/quick"

	"hdcedge/internal/rng"
)

func TestBinarizeAccuracyNearFloat(t *testing.T) {
	// The classic HDC result: sign-quantizing a wide model costs only a
	// few points of accuracy.
	train, test := synthTrainTest(t, 32, 1600, 5, 700)
	m, _, err := Train(train, nil, TrainConfig{Dim: 4096, Epochs: 8, LearningRate: 1, Nonlinear: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bm := m.Binarize()
	floatAcc := m.Accuracy(test)
	preds := bm.PredictBatch(test.X)
	correct := 0
	for i, p := range preds {
		if p == test.Y[i] {
			correct++
		}
	}
	binAcc := float64(correct) / float64(len(preds))
	if binAcc < floatAcc-0.08 {
		t.Fatalf("bipolar accuracy %.3f too far below float %.3f", binAcc, floatAcc)
	}
}

func TestBinarizeModelSize(t *testing.T) {
	enc := NewEncoder(8, 10000, true, rng.New(1))
	m := NewModel(enc, 26)
	bm := m.Binarize()
	// ceil(10000/64) = 157 words = 1256 bytes per class.
	if want := 26 * 157 * 8; bm.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", bm.Bytes(), want)
	}
}

func TestPackSigns(t *testing.T) {
	xs := []float32{1, -1, 0, 2, -0.5}
	w := packSigns(xs)
	// Positions 0 and 3 positive; zero thresholds to -1.
	if w[0] != 0b01001 {
		t.Fatalf("packed %b", w[0])
	}
}

func TestHammingAgreement(t *testing.T) {
	a := []uint64{0b1010, 0}
	b := []uint64{0b1000, 0}
	// Over 4 elements: positions 3 agree(1/1), 2 disagree, 1 agree(1? a:1,b:0 disagree)...
	// a = 1010, b = 1000: agree at bits 0 (0,0), 2 (0,0), 3 (1,1); disagree at bit 1.
	if got := hammingAgreement(a, b, 4); got != 3 {
		t.Fatalf("agreement = %d, want 3", got)
	}
	// Full-width check.
	c := []uint64{^uint64(0)}
	d := []uint64{0}
	if got := hammingAgreement(c, d, 64); got != 0 {
		t.Fatalf("opposite vectors agree %d times", got)
	}
	if got := hammingAgreement(c, c, 64); got != 64 {
		t.Fatalf("identical vectors agree %d times", got)
	}
}

func TestHammingAgreementPartialWord(t *testing.T) {
	a := []uint64{^uint64(0)}
	b := []uint64{^uint64(0)}
	for dim := 1; dim <= 64; dim++ {
		if got := hammingAgreement(a, b, dim); got != dim {
			t.Fatalf("dim %d: agreement %d", dim, got)
		}
	}
}

func TestBipolarPredictSingleMatchesBatch(t *testing.T) {
	train, test := synthTrainTest(t, 16, 600, 3, 701)
	m, _, err := Train(train, nil, TrainConfig{Dim: 512, Epochs: 4, LearningRate: 1, Nonlinear: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bm := m.Binarize()
	batch := bm.PredictBatch(test.X)
	for i := 0; i < min(50, test.Samples()); i++ {
		if single := bm.Predict(test.X.Row(i)); single != batch[i] {
			t.Fatalf("sample %d: single %d vs batch %d", i, single, batch[i])
		}
	}
}

// Property: agreement is symmetric and bounded by dim.
func TestQuickHammingProperties(t *testing.T) {
	f := func(aw, bw uint64, dim8 uint8) bool {
		dim := int(dim8%64) + 1
		a := []uint64{aw}
		b := []uint64{bw}
		ab := hammingAgreement(a, b, dim)
		ba := hammingAgreement(b, a, dim)
		if ab != ba {
			return false
		}
		if ab < 0 || ab > dim {
			return false
		}
		// Self-agreement is always dim.
		return hammingAgreement(a, a, dim) == dim
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestPackSignsTailWord: when Dim % 64 != 0, stray high bits in the last
// word must never change similarity — PackSignsInto clears them, and
// hammingAgreement masks them even if a caller left them set.
func TestPackSignsTailWord(t *testing.T) {
	for _, dim := range []int{1, 63, 65, 100, 130, 191} {
		xs := make([]float32, dim)
		r := rng.New(uint64(dim))
		for i := range xs {
			xs[i] = float32(r.Uint64()%512)/256 - 1
		}
		packed := packSigns(xs)
		words := wordsPerVector(dim)
		if rem := dim % 64; rem != 0 {
			if hi := packed[words-1] >> uint(rem); hi != 0 {
				t.Fatalf("dim %d: PackSignsInto left stray high bits %b", dim, hi)
			}
		}
		// Setting every unused high bit must not change agreement against
		// any other vector.
		dirty := append([]uint64(nil), packed...)
		if rem := dim % 64; rem != 0 {
			dirty[words-1] |= ^(uint64(1)<<uint(rem) - 1)
		}
		other := packSigns(xs[:dim]) // self-comparison plus a shifted variant
		if a, b := hammingAgreement(packed, other, dim), hammingAgreement(dirty, other, dim); a != b {
			t.Fatalf("dim %d: stray tail bits changed agreement %d -> %d", dim, a, b)
		}
		if got := hammingAgreement(dirty, dirty, dim); got != dim {
			t.Fatalf("dim %d: dirty self-agreement %d", dim, got)
		}
	}
}

// TestBipolarPackedVsFloatPredict: across random models (including
// non-multiple-of-64 dims), classifying the packed encoding must agree
// with sign-thresholding the float encoding — Predict is the packed path,
// and the reference below recomputes it from first principles.
func TestBipolarPackedVsFloatPredict(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 8; trial++ {
		n := 4 + int(r.Uint64()%12)
		d := 65 + int(r.Uint64()%200)
		k := 2 + int(r.Uint64()%5)
		enc := NewEncoder(n, d, trial%2 == 0, rng.New(uint64(100+trial)))
		m := NewModel(enc, k)
		for i := range m.Classes.F32 {
			m.Classes.F32[i] = float32(r.Uint64()%512)/256 - 1
		}
		bm := m.Binarize()
		x := make([]float32, n)
		for probe := 0; probe < 20; probe++ {
			for i := range x {
				x[i] = float32(r.Uint64()%512)/256 - 1
			}
			// Reference: float encode, sign to ±1, count sign agreements
			// against the float class rows directly.
			e := make([]float32, d)
			enc.Encode(e, x)
			best, bestAgree := 0, -1
			for c := 0; c < k; c++ {
				row := m.Classes.Row(c)
				agree := 0
				for j := 0; j < d; j++ {
					if (e[j] > 0) == (row[j] > 0) {
						agree++
					}
				}
				if agree > bestAgree {
					best, bestAgree = c, agree
				}
			}
			if got := bm.Predict(x); got != best {
				t.Fatalf("trial %d probe %d (n=%d d=%d k=%d): packed Predict %d, float reference %d",
					trial, probe, n, d, k, got, best)
			}
		}
	}
}
