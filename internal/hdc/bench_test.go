package hdc

import (
	"testing"

	"hdcedge/internal/dataset"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

func benchData(b *testing.B, features, samples, classes int) *dataset.Dataset {
	b.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(features, samples, classes, 1), 0)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkEncodeSingle(b *testing.B) {
	enc := NewEncoder(617, 10000, true, rng.New(1))
	f := make([]float32, 617)
	rng.New(2).FillNormal(f)
	dst := make([]float32, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(dst, f)
	}
}

func BenchmarkEncodeBatch32(b *testing.B) {
	enc := NewEncoder(617, 2000, true, rng.New(3))
	x := tensor.New(tensor.Float32, 32, 617)
	rng.New(4).FillNormal(x.F32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeBatch(x)
	}
}

func BenchmarkFitEncodedEpoch(b *testing.B) {
	ds := benchData(b, 40, 1000, 8)
	enc := NewEncoder(40, 2000, true, rng.New(5))
	encoded := enc.EncodeBatch(ds.X)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewModel(enc, ds.Classes)
		if _, err := m.FitEncoded(encoded, ds.Y, nil, nil, 1, 1, rng.New(6)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictFloat(b *testing.B) {
	ds := benchData(b, 40, 1200, 8)
	m, _, err := Train(ds, nil, TrainConfig{Dim: 2000, Epochs: 3, LearningRate: 1, Nonlinear: true, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	f := ds.X.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(f)
	}
}

func BenchmarkPredictBipolar(b *testing.B) {
	ds := benchData(b, 40, 1200, 8)
	m, _, err := Train(ds, nil, TrainConfig{Dim: 2000, Epochs: 3, LearningRate: 1, Nonlinear: true, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	bm := m.Binarize()
	f := ds.X.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Predict(f)
	}
}

func BenchmarkHammingSearch(b *testing.B) {
	// Pure associative search over packed hypervectors, the
	// microcontroller-class inner loop.
	enc := NewEncoder(8, 10000, true, rng.New(8))
	m := NewModel(enc, 26)
	r := rng.New(9)
	for c := 0; c < 26; c++ {
		r.FillNormal(m.Classes.Row(c))
	}
	bm := m.Binarize()
	query := make([]float32, 10000)
	r.FillNormal(query)
	packed := packSigns(query)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.ClassifyPacked(packed)
	}
}

func BenchmarkAdaptStreaming(b *testing.B) {
	ds := benchData(b, 40, 1000, 8)
	enc := NewEncoder(40, 2000, true, rng.New(10))
	m := NewModel(enc, ds.Classes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % ds.Samples()
		m.Adapt(ds.X.Row(idx), ds.Y[idx], 1)
	}
}

// BenchmarkAdaptOnlinePAMAP2 is the online trainer's per-feedback host
// work at the PAMAP2 shape (27 features, d=10,000, 5 classes): one
// non-linear encode plus one cosine scoring and update.
func BenchmarkAdaptOnlinePAMAP2(b *testing.B) {
	ds := benchData(b, 27, 1000, 5)
	m := NewModel(NewEncoder(27, DefaultDim, true, rng.New(11)), ds.Classes)
	scratch := m.NewAdaptScratch()
	for i := 0; i < 200; i++ {
		m.AdaptOnline(scratch, ds.X.Row(i), ds.Y[i], OnlineConfig{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % ds.Samples()
		m.AdaptOnline(scratch, ds.X.Row(idx), ds.Y[idx], OnlineConfig{})
	}
}
