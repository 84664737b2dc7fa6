package hdc

import (
	"fmt"
	"math"

	"hdcedge/internal/dataset"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// This file implements the single-pass, confidence-weighted training rule
// of OnlineHD (Hernandez-Cane et al., DAC 2021 — reference [17] of the
// paper), which the paper's introduction positions as the
// frequent-model-update workload that motivates training at the edge.
// Updates are scaled by (1 − similarity): confidently-correct samples
// barely move the model, borderline ones move it a lot, so one pass over
// the data approaches the quality of several perceptron epochs.

// OnlineConfig controls single-pass adaptive training.
type OnlineConfig struct {
	// LearningRate is the base step size (1 when zero).
	LearningRate float32
	// Margin updates even correctly-classified samples whose normalized
	// similarity falls below it (0 disables reinforcement of correct
	// predictions).
	Margin float32
}

// FitOnline performs one confidence-weighted pass over pre-encoded
// samples. It uses cosine-normalized similarities so the (1 − δ) weights
// are scale-free.
func (m *Model) FitOnline(enc *tensor.Tensor, y []int, cfg OnlineConfig, r *rng.RNG) (*TrainStats, error) {
	s := enc.Shape[0]
	if s != len(y) {
		return nil, fmt.Errorf("hdc: %d encoded samples, %d labels", s, len(y))
	}
	if enc.Shape[1] != m.Dim() {
		return nil, fmt.Errorf("hdc: encoded width %d, model dim %d", enc.Shape[1], m.Dim())
	}
	for _, label := range y {
		if label < 0 || label >= m.K() {
			return nil, fmt.Errorf("hdc: label %d out of range [0,%d)", label, m.K())
		}
	}
	lr := cfg.LearningRate
	if lr == 0 {
		lr = 1
	}
	order := r.Perm(s)
	scores := make([]float32, m.K())
	updates, mispred := 0, 0
	for _, idx := range order {
		e := enc.Row(idx)
		m.cosineScores(scores, e)
		pred := tensor.ArgMax(scores)
		truth := y[idx]
		if pred != truth {
			m.Bundle(truth, lr*(1-scores[truth]), e)
			m.Detach(pred, lr*(1-scores[pred]), e)
			updates++
			mispred++
		} else if cfg.Margin > 0 && scores[truth] < cfg.Margin {
			// A margin reinforcement touches the class matrix but the
			// prediction was correct — it counts as an update, not a miss.
			m.Bundle(truth, lr*(cfg.Margin-scores[truth]), e)
			updates++
		}
	}
	return &TrainStats{Epochs: []EpochStats{{
		Epoch:          0,
		Updates:        updates,
		Mispredictions: mispred,
		TrainAccuracy:  1 - float64(mispred)/float64(s),
	}}}, nil
}

// cosineScores fills scores with cosine similarities regardless of the
// model's configured inference metric. Each class row is swept once for
// both its dot with e and its squared norm; the accumulation order and
// types are tensor.MatVec's and tensor.Norm's, so the scores are
// bit-identical to MatVec followed by per-row Norm.
func (m *Model) cosineScores(scores, e []float32) {
	d := m.Dim()
	if len(e) != d || len(scores) != m.K() {
		panic(fmt.Sprintf("hdc: cosineScores dims: classes %v, e %d, scores %d", m.Classes.Shape, len(e), len(scores)))
	}
	ne := tensor.Norm(e)
	for c := range scores {
		row := m.Classes.F32[c*d : (c+1)*d]
		var dot float32
		var sq float64
		e := e[:len(row)]
		for j, v := range row {
			dot += v * e[j]
			sq += float64(v) * float64(v)
		}
		switch nc := float32(math.Sqrt(sq)); {
		case ne == 0:
			scores[c] = dot
		case nc > 0:
			scores[c] = dot / (ne * nc)
		default:
			scores[c] = 0
		}
	}
}

// TrainOnline builds a model and trains it with one confidence-weighted
// pass (plus optional extra refinement passes).
func TrainOnline(train *dataset.Dataset, dim int, passes int, cfg OnlineConfig, nonlinear bool, seed uint64) (*Model, *TrainStats, error) {
	if train == nil || train.Samples() == 0 {
		return nil, nil, fmt.Errorf("hdc: empty training set")
	}
	if passes < 1 {
		passes = 1
	}
	r := rng.New(seed)
	enc := NewEncoder(train.Features(), dim, nonlinear, r.Split())
	model := NewModel(enc, train.Classes)
	encoded := enc.EncodeBatch(train.X)
	all := &TrainStats{}
	for p := 0; p < passes; p++ {
		stats, err := model.FitOnline(encoded, train.Y, cfg, r.Split())
		if err != nil {
			return nil, nil, err
		}
		es := stats.Epochs[0]
		es.Epoch = p
		all.Epochs = append(all.Epochs, es)
	}
	return model, all, nil
}

// AdaptScratch holds the encode and score buffers a streaming update loop
// reuses across samples, keeping the hot path allocation-free (the same
// zero-alloc discipline the binhd invoke path follows).
type AdaptScratch struct {
	e      []float32
	scores []float32
}

// NewAdaptScratch sizes scratch buffers for this model's width and class
// count.
func (m *Model) NewAdaptScratch() *AdaptScratch {
	return &AdaptScratch{
		e:      make([]float32, m.Dim()),
		scores: make([]float32, m.K()),
	}
}

// Adapt applies one streaming update: the sample is encoded, classified,
// and on a misprediction the class hypervectors are corrected with rate
// lr. It returns the prediction made before the update. This is the
// "frequent model update" primitive of the paper's IoT motivation.
// Callers on a hot path should reuse scratch via AdaptWith; this wrapper
// allocates fresh buffers per call.
func (m *Model) Adapt(features []float32, label int, lr float32) (pred int, updated bool) {
	return m.AdaptWith(m.NewAdaptScratch(), features, label, lr)
}

// AdaptWith is Adapt against caller-owned scratch: with one AdaptScratch
// reused across samples the streaming path performs zero heap allocations.
func (m *Model) AdaptWith(s *AdaptScratch, features []float32, label int, lr float32) (pred int, updated bool) {
	if label < 0 || label >= m.K() {
		panic(fmt.Sprintf("hdc: Adapt label %d out of range [0,%d)", label, m.K()))
	}
	m.Encoder.Encode(s.e, features)
	m.Scores(s.scores, s.e)
	pred = tensor.ArgMax(s.scores)
	if pred != label {
		m.Bundle(label, lr, s.e)
		m.Detach(pred, lr, s.e)
		return pred, true
	}
	return pred, false
}

// AdaptOnline applies one confidence-weighted streaming update — the
// FitOnline rule on a single sample: cosine-normalized similarities scale
// the correction by (1 − δ), and a positive Margin also reinforces
// correct-but-weak predictions. It reuses caller-owned scratch and returns
// the prediction made before any update.
func (m *Model) AdaptOnline(s *AdaptScratch, features []float32, label int, cfg OnlineConfig) (pred int, updated bool) {
	if label < 0 || label >= m.K() {
		panic(fmt.Sprintf("hdc: AdaptOnline label %d out of range [0,%d)", label, m.K()))
	}
	lr := cfg.LearningRate
	if lr == 0 {
		lr = 1
	}
	m.Encoder.Encode(s.e, features)
	m.cosineScores(s.scores, s.e)
	pred = tensor.ArgMax(s.scores)
	if pred != label {
		m.Bundle(label, lr*(1-s.scores[label]), s.e)
		m.Detach(pred, lr*(1-s.scores[pred]), s.e)
		return pred, true
	}
	if cfg.Margin > 0 && s.scores[label] < cfg.Margin {
		m.Bundle(label, lr*(cfg.Margin-s.scores[label]), s.e)
		return pred, true
	}
	return pred, false
}
