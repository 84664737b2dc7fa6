package hdc

import (
	"math"
	"testing"

	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

func TestTrainOnlineSinglePassCompetitive(t *testing.T) {
	// One confidence-weighted pass must get within a few points of a
	// multi-epoch perceptron — the OnlineHD claim.
	train, test := synthTrainTest(t, 32, 1600, 5, 600)
	online, _, err := TrainOnline(train, 2048, 1, OnlineConfig{LearningRate: 1}, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := Train(train, nil, TrainConfig{Dim: 2048, Epochs: 10, LearningRate: 1, Nonlinear: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Online models have scaled class norms; evaluate with cosine.
	online.Metric = CosineSimilarity
	accOnline := online.Accuracy(test)
	accMulti := multi.Accuracy(test)
	if accOnline < accMulti-0.08 {
		t.Fatalf("single-pass accuracy %.3f too far below 10-epoch %.3f", accOnline, accMulti)
	}
}

func TestTrainOnlineExtraPassesHelp(t *testing.T) {
	train, test := synthTrainTest(t, 28, 1400, 6, 601)
	one, _, err := TrainOnline(train, 1024, 1, OnlineConfig{LearningRate: 1}, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	three, _, err := TrainOnline(train, 1024, 3, OnlineConfig{LearningRate: 1}, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	one.Metric = CosineSimilarity
	three.Metric = CosineSimilarity
	if three.Accuracy(test) < one.Accuracy(test)-0.03 {
		t.Fatalf("extra passes hurt: %.3f vs %.3f", three.Accuracy(test), one.Accuracy(test))
	}
}

func TestFitOnlineValidation(t *testing.T) {
	enc := NewEncoder(4, 64, true, rng.New(1))
	m := NewModel(enc, 3)
	e := tensor.New(tensor.Float32, 2, 64)
	if _, err := m.FitOnline(e, []int{0}, OnlineConfig{}, rng.New(2)); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, err := m.FitOnline(e, []int{0, 9}, OnlineConfig{}, rng.New(2)); err == nil {
		t.Fatal("bad label accepted")
	}
	bad := tensor.New(tensor.Float32, 2, 32)
	if _, err := m.FitOnline(bad, []int{0, 1}, OnlineConfig{}, rng.New(2)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestFitOnlineConfidenceWeighting(t *testing.T) {
	// A confidently-classified sample must produce a smaller update than
	// a borderline one.
	enc := NewEncoder(2, 128, true, rng.New(9))
	m := NewModel(enc, 2)
	r := rng.New(10)
	proto := make([]float32, 128)
	r.FillNormal(proto)
	// Make class 1 strongly aligned with proto, class 0 its negation.
	copy(m.Classes.Row(1), proto)
	for j, v := range proto {
		m.Classes.Row(0)[j] = -v
	}
	encT := tensor.New(tensor.Float32, 1, 128)
	copy(encT.Row(0), proto)
	before := append([]float32(nil), m.Classes.Row(0)...)
	// Sample labelled 0 but maximally similar to class 1: a large
	// (1 − δ) misprediction update must fire.
	if _, err := m.FitOnline(encT, []int{0}, OnlineConfig{LearningRate: 1}, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	moved := 0.0
	for j := range before {
		d := float64(m.Classes.Row(0)[j] - before[j])
		moved += d * d
	}
	if moved == 0 {
		t.Fatal("misprediction produced no update")
	}
}

// TestFitOnlineMarginAccuracyAccounting is the regression test for the
// accounting bug where margin reinforcements of *correctly classified*
// samples were counted as errors: with a margin high enough that every
// correct sample triggers a reinforcement, the buggy accounting reported
// TrainAccuracy near zero even when the model predicted everything right.
func TestFitOnlineMarginAccuracyAccounting(t *testing.T) {
	enc := NewEncoder(2, 64, true, rng.New(30))
	m := NewModel(enc, 2)
	r := rng.New(31)
	proto := make([]float32, 64)
	r.FillNormal(proto)
	copy(m.Classes.Row(1), proto)
	for j, v := range proto {
		m.Classes.Row(0)[j] = -v
	}
	// Every sample is its class prototype plus independent noise: the
	// prediction stays correct (δ against the right class is strongly
	// positive, against the opposite strongly negative) but cosine
	// similarity lands well below a 0.95 margin, so every sample fires a
	// reinforcement update.
	encT := tensor.New(tensor.Float32, 4, 64)
	y := []int{1, 0, 1, 0}
	noise := make([]float32, 64)
	for i, label := range y {
		src := proto
		if label == 0 {
			src = m.Classes.Row(0)
		}
		r.FillNormal(noise)
		row := encT.Row(i)
		for j := range row {
			row[j] = src[j] + 0.5*noise[j]
		}
	}
	stats, err := m.FitOnline(encT, y, OnlineConfig{LearningRate: 0.01, Margin: 0.95}, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	es := stats.Epochs[0]
	if es.Mispredictions != 0 {
		t.Fatalf("all-correct pass reported %d mispredictions", es.Mispredictions)
	}
	if es.Updates == 0 {
		t.Fatal("margin reinforcement never fired; test premise broken")
	}
	// Pre-fix this was 1 - updates/s = 0 with every sample reinforcing.
	if es.TrainAccuracy != 1 {
		t.Fatalf("TrainAccuracy %.3f counts margin reinforcements as errors; want 1.0 (updates=%d)",
			es.TrainAccuracy, es.Updates)
	}
}

func TestAdaptStreamingImproves(t *testing.T) {
	train, test := synthTrainTest(t, 24, 1500, 4, 602)
	// Start with an untrained model and stream the training set through
	// Adapt once.
	r := rng.New(7)
	enc := NewEncoder(train.Features(), 1024, true, r)
	m := NewModel(enc, train.Classes)
	for i := 0; i < train.Samples(); i++ {
		m.Adapt(train.X.Row(i), train.Y[i], 1)
	}
	if acc := m.Accuracy(test); acc < 0.65 {
		t.Fatalf("streamed accuracy %.3f (chance 0.25)", acc)
	}
}

func TestAdaptReturnsUpdatedFlag(t *testing.T) {
	train, _ := synthTrainTest(t, 16, 400, 3, 603)
	enc := NewEncoder(train.Features(), 256, true, rng.New(8))
	m := NewModel(enc, train.Classes)
	// First sample on a zero model: argmax of zeros is class 0.
	pred, updated := m.Adapt(train.X.Row(0), train.Y[0], 1)
	if train.Y[0] != 0 {
		if !updated || pred == train.Y[0] {
			t.Fatalf("first adapt on zero model: pred %d, updated %v", pred, updated)
		}
	}
	// Re-presenting the same sample immediately must now be correct.
	pred2, updated2 := m.Adapt(train.X.Row(0), train.Y[0], 1)
	if pred2 != train.Y[0] && !updated2 {
		t.Fatal("second adapt neither correct nor updated")
	}
}

// TestAdaptWithMatchesAdapt pins that the scratch-reuse variant is the
// same update rule: identical models streamed through Adapt and AdaptWith
// must end bit-identical.
func TestAdaptWithMatchesAdapt(t *testing.T) {
	train, _ := synthTrainTest(t, 20, 600, 4, 604)
	enc := NewEncoder(train.Features(), 512, true, rng.New(9))
	a := NewModel(enc, train.Classes)
	b := a.Clone()
	scratch := b.NewAdaptScratch()
	for i := 0; i < train.Samples(); i++ {
		predA, updA := a.Adapt(train.X.Row(i), train.Y[i], 1)
		predB, updB := b.AdaptWith(scratch, train.X.Row(i), train.Y[i], 1)
		if predA != predB || updA != updB {
			t.Fatalf("sample %d diverged: Adapt (%d,%v) vs AdaptWith (%d,%v)",
				i, predA, updA, predB, updB)
		}
	}
	for j, v := range a.Classes.F32 {
		if b.Classes.F32[j] != v {
			t.Fatalf("class matrices diverged at element %d", j)
		}
	}
}

// TestAdaptWithZeroAllocs enforces the binhd zero-alloc discipline on the
// streaming hot path: with caller-owned scratch, AdaptWith and AdaptOnline
// must not touch the heap.
func TestAdaptWithZeroAllocs(t *testing.T) {
	train, _ := synthTrainTest(t, 16, 200, 3, 605)
	enc := NewEncoder(train.Features(), 256, true, rng.New(10))
	m := NewModel(enc, train.Classes)
	scratch := m.NewAdaptScratch()
	i := 0
	next := func() int { v := i; i = (i + 1) % train.Samples(); return v }
	if n := testing.AllocsPerRun(200, func() {
		s := next()
		m.AdaptWith(scratch, train.X.Row(s), train.Y[s], 1)
	}); n != 0 {
		t.Fatalf("AdaptWith allocates %.1f objects per call; want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		s := next()
		m.AdaptOnline(scratch, train.X.Row(s), train.Y[s], OnlineConfig{LearningRate: 1, Margin: 0.3})
	}); n != 0 {
		t.Fatalf("AdaptOnline allocates %.1f objects per call; want 0", n)
	}
}

// TestCosineScoresMatchMatVecNorm pins the one-sweep cosine scoring bit
// for bit to tensor.MatVec plus per-row tensor.Norm, including a zero
// query (raw dots come back) and a zero class row (scores 0). The second
// shape has many short rows, so a norm accumulated any other way (say,
// squaring in float32) changes some float32 norms and fails.
func TestCosineScoresMatchMatVecNorm(t *testing.T) {
	r := rng.New(14)
	for _, shape := range []struct{ d, k int }{{1001, 5}, {101, 200}} {
		m := NewModel(NewEncoder(4, shape.d, true, r), shape.k)
		r.FillNormal(m.Classes.F32)
		clear(m.Classes.Row(2))
		e := make([]float32, m.Dim())
		r.FillNormal(e)
		got := make([]float32, m.K())
		want := make([]float32, m.K())
		for qi, q := range [][]float32{e, make([]float32, m.Dim())} {
			m.cosineScores(got, q)
			tensor.MatVec(want, m.Classes, q)
			if ne := tensor.Norm(q); ne != 0 {
				for c := range want {
					if nc := tensor.Norm(m.Classes.Row(c)); nc > 0 {
						want[c] /= ne * nc
					} else {
						want[c] = 0
					}
				}
			}
			for c := range want {
				if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
					t.Fatalf("d%d k%d query %d class %d: %v, want %v", shape.d, shape.k, qi, c, got[c], want[c])
				}
			}
		}
		if got[2] != 0 {
			t.Fatalf("zero class row scored %v against a zero query", got[2])
		}
	}
}

// TestAdaptOnlineConfidenceWeighting checks the streaming rule matches the
// batch FitOnline semantics: mispredictions correct with (1 − δ) weights,
// and the margin reinforces weakly-correct samples.
func TestAdaptOnlineConfidenceWeighting(t *testing.T) {
	train, test := synthTrainTest(t, 24, 1200, 4, 606)
	enc := NewEncoder(train.Features(), 1024, true, rng.New(11))
	m := NewModel(enc, train.Classes)
	scratch := m.NewAdaptScratch()
	updates := 0
	for i := 0; i < train.Samples(); i++ {
		if _, upd := m.AdaptOnline(scratch, train.X.Row(i), train.Y[i], OnlineConfig{LearningRate: 1}); upd {
			updates++
		}
	}
	if updates == 0 {
		t.Fatal("streaming pass applied no updates")
	}
	m.Metric = CosineSimilarity
	if acc := m.Accuracy(test); acc < 0.65 {
		t.Fatalf("confidence-weighted streaming accuracy %.3f (chance 0.25)", acc)
	}
	// Margin path: a correctly-classified sample below the margin must
	// still report updated=true and move the class matrix. Predict (which
	// never updates) finds such a sample first; with Metric set to cosine
	// above, it agrees with AdaptOnline's cosine classification.
	for i := 0; i < train.Samples(); i++ {
		if m.Predict(train.X.Row(i)) != train.Y[i] {
			continue
		}
		before := append([]float32(nil), m.Classes.F32...)
		pred, upd := m.AdaptOnline(scratch, train.X.Row(i), train.Y[i], OnlineConfig{LearningRate: 0.001, Margin: 0.9999})
		if pred != train.Y[i] {
			t.Fatalf("sample %d: Predict and AdaptOnline disagree", i)
		}
		if !upd {
			t.Fatal("near-1 margin did not reinforce a correct sample")
		}
		changed := false
		for j, v := range m.Classes.F32 {
			if v != before[j] {
				changed = true
				break
			}
		}
		if !changed {
			t.Fatal("reinforcement left the class matrix untouched")
		}
		return
	}
	t.Fatal("no correctly-classified sample found to probe the margin path")
}

func TestAdaptPanicsOnBadLabel(t *testing.T) {
	enc := NewEncoder(4, 64, true, rng.New(1))
	m := NewModel(enc, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad label did not panic")
		}
	}()
	m.Adapt(make([]float32, 4), 5, 1)
}
