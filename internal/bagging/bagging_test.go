package bagging

import (
	"math"
	"testing"

	"hdcedge/internal/dataset"
	"hdcedge/internal/hdc"
	"hdcedge/internal/rng"
)

func synthSplit(t *testing.T, seed uint64) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(36, 2000, 5, seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Split(0.25, rng.New(seed+1))
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 2048 // keep tests fast; ratios match the paper
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SubModels = 0 },
		func(c *Config) { c.Dim = 2 },
		func(c *Config) { c.Iterations = 0 },
		func(c *Config) { c.DatasetRatio = 0 },
		func(c *Config) { c.DatasetRatio = 1.5 },
		func(c *Config) { c.FeatureRatio = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestSubDim(t *testing.T) {
	c := DefaultConfig()
	if c.SubDim() != 2500 {
		t.Fatalf("SubDim = %d, want 2500", c.SubDim())
	}
}

func TestCostReductionPaperPoint(t *testing.T) {
	// M=4, d'/d=1/4, I'/I=6/20, α=0.6, β=1 → C'/C = 0.18.
	c := DefaultConfig()
	got := c.CostReduction(20)
	if math.Abs(got-0.18) > 1e-9 {
		t.Fatalf("CostReduction = %v, want 0.18", got)
	}
}

func TestCostReductionBelowOne(t *testing.T) {
	// The whole point: the bagging operating point must cost less than
	// full training.
	if c := DefaultConfig(); c.CostReduction(20) >= 1 {
		t.Fatal("bagging costs more than full training")
	}
}

func TestTrainProducesMSubModels(t *testing.T) {
	train, _ := synthSplit(t, 50)
	ens, stats, err := Train(train, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Subs) != 4 || len(stats.SubModels) != 4 {
		t.Fatalf("got %d sub-models", len(ens.Subs))
	}
	for m, sub := range ens.Subs {
		if sub.Dim() != 512 {
			t.Fatalf("sub-model %d width %d, want 512", m, sub.Dim())
		}
		if stats.SubModels[m].Samples != int(0.6*float64(train.Samples())) {
			t.Fatalf("sub-model %d trained on %d samples", m, stats.SubModels[m].Samples)
		}
		if len(stats.SubModels[m].Train.Epochs) != 6 {
			t.Fatalf("sub-model %d ran %d iterations", m, len(stats.SubModels[m].Train.Epochs))
		}
	}
}

func TestSubModelsAreIndependent(t *testing.T) {
	train, _ := synthSplit(t, 51)
	ens, _, err := Train(train, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Different base hypervector groups: first rows must differ.
	a := ens.Subs[0].Encoder.Base.F32
	b := ens.Subs[1].Encoder.Base.F32
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/100 {
		t.Fatalf("sub-model bases share %d/%d entries", same, len(a))
	}
}

func TestTrainDeterministic(t *testing.T) {
	train, _ := synthSplit(t, 52)
	cfg := smallConfig()
	e1, _, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1.Subs[0].Classes.F32 {
		if e1.Subs[0].Classes.F32[i] != e2.Subs[0].Classes.F32[i] {
			t.Fatal("same seed produced different ensembles")
		}
	}
}

func TestFuseShapes(t *testing.T) {
	train, _ := synthSplit(t, 53)
	cfg := smallConfig()
	ens, _, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fused := ens.Fuse()
	if fused.Dim() != cfg.Dim {
		t.Fatalf("fused dim %d, want %d", fused.Dim(), cfg.Dim)
	}
	if fused.Encoder.Features() != train.Features() {
		t.Fatalf("fused features %d", fused.Encoder.Features())
	}
	if fused.K() != train.Classes {
		t.Fatalf("fused classes %d", fused.K())
	}
}

func TestFusedModelEqualsScoreSum(t *testing.T) {
	// The central fusion identity: the single fused model must predict
	// exactly what summing sub-model scores predicts.
	train, test := synthSplit(t, 54)
	ens, _, err := Train(train, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fused := ens.Fuse()
	for i := 0; i < min(200, test.Samples()); i++ {
		f := test.X.Row(i)
		if fused.Predict(f) != ens.PredictScoreSum(f) {
			t.Fatalf("sample %d: fused %d vs score-sum %d", i, fused.Predict(f), ens.PredictScoreSum(f))
		}
	}
}

func TestBaggingAccuracyNearFullModel(t *testing.T) {
	// Fig 7's claim: weak sub-models fused recover (approximately) the
	// fully-trained single model's accuracy.
	train, test := synthSplit(t, 55)
	full, _, err := hdc.Train(train, nil, hdc.TrainConfig{
		Dim: 2048, Epochs: 20, LearningRate: 1, Nonlinear: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ens, _, err := Train(train, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fullAcc := full.Accuracy(test)
	bagAcc := ens.Accuracy(test)
	if bagAcc < fullAcc-0.06 {
		t.Fatalf("bagging accuracy %.3f too far below full model %.3f", bagAcc, fullAcc)
	}
}

func TestFeatureSamplingMasks(t *testing.T) {
	train, _ := synthSplit(t, 56)
	cfg := smallConfig()
	cfg.FeatureRatio = 0.5
	ens, stats, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := train.Features()
	for m, mask := range ens.Masks {
		kept := 0
		for _, k := range mask {
			if k {
				kept++
			}
		}
		if kept != n/2 {
			t.Fatalf("sub-model %d kept %d features, want %d", m, kept, n/2)
		}
		if stats.SubModels[m].Features != n/2 {
			t.Fatalf("stats report %d features", stats.SubModels[m].Features)
		}
		// Masked features must have zero base rows.
		d := ens.Subs[m].Dim()
		for f, keep := range mask {
			if keep {
				continue
			}
			row := ens.Subs[m].Encoder.Base.F32[f*d : (f+1)*d]
			for _, v := range row {
				if v != 0 {
					t.Fatalf("sub-model %d masked feature %d has nonzero base", m, f)
				}
			}
		}
	}
}

func TestFusedModelWithMasksIgnoresMaskedFeatures(t *testing.T) {
	// The stacked inference model realizes feature sampling through zero
	// columns, as the paper describes.
	train, test := synthSplit(t, 57)
	cfg := smallConfig()
	cfg.SubModels = 2
	cfg.FeatureRatio = 0.5
	ens, _, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fused := ens.Fuse()
	// Feature masked in *both* sub-models must have an all-zero base row.
	for f := 0; f < train.Features(); f++ {
		if ens.Masks[0][f] || ens.Masks[1][f] {
			continue
		}
		row := fused.Encoder.Base.Row(f)
		for _, v := range row {
			if v != 0 {
				t.Fatalf("feature %d masked everywhere but fused base nonzero", f)
			}
		}
	}
	_ = test
}

// TestPredictVoteReasonable checks the classical majority-vote consensus
// and that the fused model, which sums sub-model scores, is no less
// accurate than it.
func TestPredictVoteReasonable(t *testing.T) {
	train, test := synthSplit(t, 58)
	ens, _, err := Train(train, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fused := ens.Fuse()
	voted, summed := 0, 0
	nProbe := min(300, test.Samples())
	for i := 0; i < nProbe; i++ {
		if ens.PredictVote(test.X.Row(i)) == test.Y[i] {
			voted++
		}
		if fused.Predict(test.X.Row(i)) == test.Y[i] {
			summed++
		}
	}
	if acc := float64(voted) / float64(nProbe); acc < 0.6 {
		t.Fatalf("majority-vote accuracy %.3f; chance 0.2", acc)
	}
	if summed < voted {
		t.Fatalf("fused score sum got %d of %d right, majority vote %d", summed, nProbe, voted)
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, _, err := Train(nil, smallConfig()); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestTotalUpdatesPositive(t *testing.T) {
	train, _ := synthSplit(t, 59)
	_, stats, err := Train(train, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalUpdates() <= 0 {
		t.Fatal("no updates recorded")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestOOBAccuracy(t *testing.T) {
	train, test := synthSplit(t, 60)
	ens, _, err := Train(train, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	oob, evaluated := ens.OOBAccuracy(train)
	if evaluated == 0 {
		t.Fatal("no out-of-bag samples with α=0.6 bootstrap sampling")
	}
	// With α=0.6, each sample is out-of-bag for a sub-model with
	// probability (1 - 1/N)^{0.6N} ≈ e^{-0.6} ≈ 0.55, so most samples
	// should be evaluable.
	if frac := float64(evaluated) / float64(train.Samples()); frac < 0.8 {
		t.Fatalf("only %.2f of samples evaluable out-of-bag", frac)
	}
	// OOB accuracy must be a sane generalization estimate: close to the
	// held-out test accuracy.
	testAcc := ens.Accuracy(test)
	if oob < testAcc-0.1 || oob > testAcc+0.1 {
		t.Fatalf("OOB estimate %.3f far from test accuracy %.3f", oob, testAcc)
	}
}

func TestParallelTrainingDeterministic(t *testing.T) {
	// Concurrency must not perturb results: repeated runs are identical.
	train, _ := synthSplit(t, 61)
	cfg := smallConfig()
	cfg.SubModels = 8
	cfg.Dim = 2048
	a, _, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := range a.Subs {
		for i := range a.Subs[m].Classes.F32 {
			if a.Subs[m].Classes.F32[i] != b.Subs[m].Classes.F32[i] {
				t.Fatalf("sub-model %d differs between runs at %d", m, i)
			}
		}
	}
}

func TestSampleIdxRecorded(t *testing.T) {
	train, _ := synthSplit(t, 62)
	ens, _, err := Train(train, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for m, idx := range ens.SampleIdx {
		if len(idx) != int(0.6*float64(train.Samples())) {
			t.Fatalf("sub-model %d recorded %d indices", m, len(idx))
		}
		for _, i := range idx {
			if i < 0 || i >= train.Samples() {
				t.Fatalf("sub-model %d index %d out of range", m, i)
			}
		}
	}
}
