// Package bagging implements the paper's bootstrap-aggregating training
// optimization: M weak HDC sub-models of width d' = d/M are trained for
// fewer iterations on bootstrap-sampled subsets, then fused into a single
// full-width inference model with zero per-query overhead.
//
// The fusion identity the paper exploits: stacking the sub-model base
// matrices horizontally (Ɓ = [Ɓ¹ … Ɓᴹ], n×d) and the class matrices along
// the hypervector axis makes the fused model's dot-product score for class
// c equal the *sum* of the sub-model scores — consensus by score addition,
// computed in one vector-matrix multiply.
package bagging

import (
	"fmt"
	"sync"

	"hdcedge/internal/dataset"
	"hdcedge/internal/hdc"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// Config controls ensemble training. The paper's operating point is
// M = 4, d' = 2500 (d/M), I' = 6, α = 0.6, β disabled (1.0).
type Config struct {
	// SubModels is M.
	SubModels int
	// Dim is the fused inference width d; each sub-model uses d/M.
	Dim int
	// Iterations is I', the per-sub-model training epochs.
	Iterations int
	// DatasetRatio is α, the bootstrap sample fraction per sub-model.
	DatasetRatio float64
	// FeatureRatio is β, the fraction of features kept per sub-model
	// (1 disables feature sampling, the paper's final choice).
	FeatureRatio float64
	// LearningRate is λ for the class-hypervector updates.
	LearningRate float32
	// Nonlinear selects tanh encoding.
	Nonlinear bool
	// Seed drives all sampling.
	Seed uint64
}

// DefaultConfig returns the paper's bagging operating point.
func DefaultConfig() Config {
	return Config{
		SubModels:    4,
		Dim:          hdc.DefaultDim,
		Iterations:   6,
		DatasetRatio: 0.6,
		FeatureRatio: 1.0,
		LearningRate: 1,
		Nonlinear:    true,
		Seed:         1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SubModels < 1:
		return fmt.Errorf("bagging: need at least one sub-model, got %d", c.SubModels)
	case c.Dim < c.SubModels:
		return fmt.Errorf("bagging: dim %d smaller than sub-model count %d", c.Dim, c.SubModels)
	case c.Iterations < 1:
		return fmt.Errorf("bagging: need at least one iteration, got %d", c.Iterations)
	case c.DatasetRatio <= 0 || c.DatasetRatio > 1:
		return fmt.Errorf("bagging: dataset ratio %v outside (0,1]", c.DatasetRatio)
	case c.FeatureRatio <= 0 || c.FeatureRatio > 1:
		return fmt.Errorf("bagging: feature ratio %v outside (0,1]", c.FeatureRatio)
	}
	return nil
}

// SubDim returns d', the per-sub-model hypervector width.
func (c Config) SubDim() int { return c.Dim / c.SubModels }

// CostReduction returns C'/C, the paper's weight-update cost model:
// C' = C · M · (d'/d) · (I'/I) · α · β relative to a full model trained
// for fullIterations.
func (c Config) CostReduction(fullIterations int) float64 {
	return float64(c.SubModels) *
		(float64(c.SubDim()) / float64(c.Dim)) *
		(float64(c.Iterations) / float64(fullIterations)) *
		c.DatasetRatio * c.FeatureRatio
}

// SubModelStats records one sub-model's training.
type SubModelStats struct {
	Samples  int // bootstrap subset size
	Features int // features kept after feature sampling
	Train    *hdc.TrainStats
}

// Stats aggregates ensemble training.
type Stats struct {
	SubModels []SubModelStats
}

// TotalUpdates sums misclassification updates over all sub-models; with
// SubDim scaling it drives the update-phase runtime model.
func (s *Stats) TotalUpdates() int {
	total := 0
	for _, sm := range s.SubModels {
		total += sm.Train.TotalUpdates()
	}
	return total
}

// Ensemble is a trained bag of HDC sub-models.
type Ensemble struct {
	Config Config
	Subs   []*hdc.Model
	// Masks[m] is the per-feature keep mask of sub-model m (all-true when
	// feature sampling is disabled).
	Masks [][]bool
	// SampleIdx[m] holds the bootstrap sample indices (into the training
	// set) sub-model m trained on; kept for out-of-bag evaluation.
	SampleIdx [][]int
}

// Train trains the ensemble on train. Each sub-model gets an independent
// base-hypervector group, a bootstrap dataset sample of size α·N (drawn
// with replacement), and optionally a feature mask keeping β·n features.
// Sub-models train concurrently; all randomness derives from
// pre-split per-sub-model generators, so results are deterministic
// regardless of scheduling.
func Train(train *dataset.Dataset, cfg Config) (*Ensemble, *Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if train == nil || train.Samples() == 0 {
		return nil, nil, fmt.Errorf("bagging: empty training set")
	}
	r := rng.New(cfg.Seed)
	n := train.Features()
	subDim := cfg.SubDim()

	ens := &Ensemble{
		Config:    cfg,
		Subs:      make([]*hdc.Model, cfg.SubModels),
		Masks:     make([][]bool, cfg.SubModels),
		SampleIdx: make([][]int, cfg.SubModels),
	}
	stats := &Stats{SubModels: make([]SubModelStats, cfg.SubModels)}

	// Derive every sub-model's generator sequentially, then train in
	// parallel.
	rms := make([]*rng.RNG, cfg.SubModels)
	for m := range rms {
		rms[m] = r.Split()
	}
	errs := make([]error, cfg.SubModels)
	var wg sync.WaitGroup
	for m := 0; m < cfg.SubModels; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			rm := rms[m]
			enc := hdc.NewEncoder(n, subDim, cfg.Nonlinear, rm.Split())

			mask := make([]bool, n)
			kept := n
			if cfg.FeatureRatio < 1 {
				kept = int(float64(n) * cfg.FeatureRatio)
				if kept < 1 {
					kept = 1
				}
				for _, f := range rm.SampleWithoutReplacement(n, kept) {
					mask[f] = true
				}
				enc.MaskFeatures(mask)
			} else {
				for i := range mask {
					mask[i] = true
				}
			}

			subN := int(float64(train.Samples()) * cfg.DatasetRatio)
			if subN < 1 {
				subN = 1
			}
			idx := rm.SampleWithReplacement(train.Samples(), subN)
			subset := train.Subset(idx)

			model := hdc.NewModel(enc, train.Classes)
			encoded := enc.EncodeBatch(subset.X)
			ts, err := model.FitEncoded(encoded, subset.Y, nil, nil, cfg.Iterations, cfg.LearningRate, rm.Split())
			if err != nil {
				errs[m] = fmt.Errorf("bagging: sub-model %d: %w", m, err)
				return
			}
			ens.Subs[m] = model
			ens.Masks[m] = mask
			ens.SampleIdx[m] = idx
			stats.SubModels[m] = SubModelStats{Samples: subN, Features: kept, Train: ts}
		}(m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return ens, stats, nil
}

// OOBAccuracy estimates generalization accuracy without a held-out set:
// each training sample is scored only by the sub-models whose bootstrap
// sample did not contain it, and their summed similarities vote. Samples
// that every sub-model saw are skipped. It returns the accuracy and how
// many samples were evaluable.
func (e *Ensemble) OOBAccuracy(train *dataset.Dataset) (float64, int) {
	inBag := make([][]bool, len(e.Subs))
	for m, idx := range e.SampleIdx {
		inBag[m] = make([]bool, train.Samples())
		for _, i := range idx {
			inBag[m][i] = true
		}
	}
	k := e.Subs[0].K()
	total := make([]float32, k)
	scores := make([]float32, k)
	correct, evaluated := 0, 0
	for i := 0; i < train.Samples(); i++ {
		voters := 0
		for c := range total {
			total[c] = 0
		}
		for m, sub := range e.Subs {
			if inBag[m][i] {
				continue
			}
			enc := make([]float32, sub.Dim())
			sub.Encoder.Encode(enc, train.X.Row(i))
			sub.Scores(scores, enc)
			for c := range total {
				total[c] += scores[c]
			}
			voters++
		}
		if voters == 0 {
			continue
		}
		evaluated++
		if tensor.ArgMax(total) == train.Y[i] {
			correct++
		}
	}
	if evaluated == 0 {
		return 0, 0
	}
	return float64(correct) / float64(evaluated), evaluated
}

// Fuse combines the sub-models into one full-width inference model: base
// matrices stacked horizontally, class matrices concatenated along the
// hypervector axis. The fused model's dot score per class equals the sum
// of sub-model scores.
func (e *Ensemble) Fuse() *hdc.Model {
	bases := make([]*tensor.Tensor, len(e.Subs))
	classes := make([]*tensor.Tensor, len(e.Subs))
	for m, sub := range e.Subs {
		bases[m] = sub.Encoder.Base
		classes[m] = sub.Classes
	}
	fusedBase := tensor.HStack(bases...)
	// Class fusion: for class c the fused hypervector is the
	// concatenation of every sub-model's class-c hypervector, laid out to
	// match the stacked encoding.
	k := e.Subs[0].K()
	fusedClasses := tensor.New(tensor.Float32, k, fusedBase.Shape[1])
	off := 0
	for _, cm := range classes {
		subDim := cm.Shape[1]
		for c := 0; c < k; c++ {
			copy(fusedClasses.Row(c)[off:off+subDim], cm.Row(c))
		}
		off += subDim
	}
	return &hdc.Model{
		Encoder: &hdc.Encoder{Base: fusedBase, Nonlinear: e.Subs[0].Encoder.Nonlinear},
		Classes: fusedClasses,
	}
}

// PredictVote classifies by majority vote over sub-model predictions, the
// classical bagging consensus. Ties break toward the lowest class index.
// It is the baseline tests hold the fused score-sum model against.
func (e *Ensemble) PredictVote(features []float32) int {
	k := e.Subs[0].K()
	votes := make([]int, k)
	for _, sub := range e.Subs {
		votes[sub.Predict(features)]++
	}
	best := 0
	for c := 1; c < k; c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// PredictScoreSum classifies by summing sub-model similarity scores, which
// is mathematically what the fused model computes.
func (e *Ensemble) PredictScoreSum(features []float32) int {
	k := e.Subs[0].K()
	total := make([]float32, k)
	scores := make([]float32, k)
	for _, sub := range e.Subs {
		enc := make([]float32, sub.Dim())
		sub.Encoder.Encode(enc, features)
		sub.Scores(scores, enc)
		for c := range total {
			total[c] += scores[c]
		}
	}
	return tensor.ArgMax(total)
}

// Accuracy evaluates the fused model on a labelled dataset.
func (e *Ensemble) Accuracy(ds *dataset.Dataset) float64 {
	return e.Fuse().Accuracy(ds)
}
