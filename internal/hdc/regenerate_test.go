package hdc

import (
	"testing"

	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

func TestRegenerateCountsAndZeroes(t *testing.T) {
	train, _ := synthTrainTest(t, 20, 800, 4, 904)
	m, _, err := Train(train, nil, TrainConfig{Dim: 512, Epochs: 5, LearningRate: 1, Nonlinear: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Clone().Regenerate(0.25, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if n != 128 {
		t.Fatalf("regenerated %d dims, want 128", n)
	}
	if n, err := m.Clone().Regenerate(0, rng.New(12)); err != nil || n != 0 {
		t.Fatalf("zero fraction regenerated %d dims (err %v)", n, err)
	}
}

// TestRegenerateTruncationEdges pins the fraction*d truncation behaviour:
// fractions below 1/d regenerate nothing (n truncates to 0), fraction 1
// regenerates every dimension, and out-of-range fractions clamp.
func TestRegenerateTruncationEdges(t *testing.T) {
	train, _ := synthTrainTest(t, 16, 400, 3, 906)
	m, _, err := Train(train, nil, TrainConfig{Dim: 64, Epochs: 3, LearningRate: 1, Nonlinear: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dim()
	cases := []struct {
		name     string
		fraction float64
		want     int
	}{
		{"below-one-dim", 0.5 / float64(d), 0}, // fraction*d = 0.5 → truncates to 0
		{"exactly-one-dim", 1.0 / float64(d), 1},
		{"half", 0.5, d / 2},
		{"all", 1.0, d},
		{"clamped-above", 2.0, d},
		{"negative", -0.5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := m.Clone()
			n, err := c.Regenerate(tc.fraction, rng.New(22))
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.want {
				t.Fatalf("fraction %g regenerated %d dims, want %d", tc.fraction, n, tc.want)
			}
			if tc.want == d {
				// Full regeneration must zero the entire class matrix.
				for _, v := range c.Classes.F32 {
					if v != 0 {
						t.Fatal("full regeneration left non-zero class entries")
					}
				}
			}
			if tc.want == 0 {
				// No-op regeneration must leave the model untouched.
				for i, v := range c.Classes.F32 {
					if v != m.Classes.F32[i] {
						t.Fatal("zero-dim regeneration modified the class matrix")
					}
				}
			}
		})
	}
}

// TestRegenerateSingleClassErrors pins the K()<2 guard: with one class the
// across-class variance is identically zero, so weakest-dimension ranking
// is meaningless and Regenerate must refuse rather than silently mis-rank.
func TestRegenerateSingleClassErrors(t *testing.T) {
	enc := NewEncoder(8, 32, true, rng.New(23))
	m := &Model{Encoder: enc, Classes: tensor.New(tensor.Float32, 1, 32)}
	if _, err := m.Regenerate(0.5, rng.New(24)); err == nil {
		t.Fatal("single-class Regenerate succeeded; want error")
	}
	if _, _, err := m.RegenerateAndRefine(tensor.New(tensor.Float32, 4, 8), []int{0, 0, 0, 0}, 0.5, 2, 1, rng.New(25)); err == nil {
		t.Fatal("single-class RegenerateAndRefine succeeded; want error")
	}
}

func TestRegenerateAndRefineKeepsAccuracy(t *testing.T) {
	train, test := synthTrainTest(t, 24, 1600, 4, 905)
	m, _, err := Train(train, nil, TrainConfig{Dim: 1024, Epochs: 8, LearningRate: 1, Nonlinear: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Accuracy(test)
	refined := m.Clone()
	n, _, err := refined.RegenerateAndRefine(train.X, train.Y, 0.2, 4, 1, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing regenerated")
	}
	after := refined.Accuracy(test)
	if after < before-0.05 {
		t.Fatalf("regeneration hurt accuracy: %.3f -> %.3f", before, after)
	}
}

// TestRegenerateRecoversFromClassCorruption injects SEU-style corruption
// directly into the class hypervectors — the failure the integrity layer's
// ladder repairs by re-upload when golden bytes exist — and checks that
// regeneration plus refinement recovers the model from training data alone
// to within one accuracy point of the uncorrupted baseline.
func TestRegenerateRecoversFromClassCorruption(t *testing.T) {
	train, test := synthTrainTest(t, 24, 1600, 4, 907)
	m, _, err := Train(train, nil, TrainConfig{Dim: 1024, Epochs: 8, LearningRate: 1, Nonlinear: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	baseline := m.Accuracy(test)

	// Slam large-magnitude noise into 15% of the class-matrix entries,
	// mimicking accumulated high-order bit flips in resident weights.
	corrupt := m.Clone()
	r := rng.New(18)
	scale := float64(0)
	for _, v := range corrupt.Classes.F32 {
		if s := float64(v); s > scale {
			scale = s
		} else if -s > scale {
			scale = -s
		}
	}
	for i := range corrupt.Classes.F32 {
		if r.Float64() < 0.15 {
			corrupt.Classes.F32[i] = float32((r.Float64()*2 - 1) * 4 * scale)
		}
	}
	degraded := corrupt.Accuracy(test)
	if degraded > baseline-0.02 {
		t.Fatalf("corruption too mild to exercise recovery: %.3f -> %.3f", baseline, degraded)
	}

	n, _, err := corrupt.RegenerateAndRefine(train.X, train.Y, 0.2, 6, 1, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing regenerated")
	}
	recovered := corrupt.Accuracy(test)
	if recovered < baseline-0.01 {
		t.Fatalf("recovery fell short: baseline %.3f, corrupted %.3f, recovered %.3f (bar %.3f)",
			baseline, degraded, recovered, baseline-0.01)
	}
}

func TestRegenerateAndRefineValidation(t *testing.T) {
	train, _ := synthTrainTest(t, 8, 200, 2, 906)
	m, _, err := Train(train, nil, TrainConfig{Dim: 128, Epochs: 2, LearningRate: 1, Nonlinear: true, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RegenerateAndRefine(train.X, train.Y, 0.1, 0, 1, rng.New(16)); err == nil {
		t.Fatal("zero refinement epochs accepted")
	}
}
