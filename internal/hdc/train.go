package hdc

import (
	"fmt"

	"hdcedge/internal/dataset"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// TrainConfig controls classifier training.
type TrainConfig struct {
	// Dim is the hypervector width d (DefaultDim when zero).
	Dim int
	// Epochs is the number of passes over the training set (the paper
	// trains 20 for fully-trained models, 6 under bagging).
	Epochs int
	// LearningRate is λ in the bundling/detaching updates (1 when zero).
	LearningRate float32
	// Nonlinear selects tanh encoding (the paper's choice). NOTE: the
	// zero value selects the linear-encoding ablation.
	Nonlinear bool
	// Seed drives base-hypervector generation and epoch shuffling.
	Seed uint64
}

// DefaultTrainConfig returns the paper's fully-trained-model settings.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Dim: DefaultDim, Epochs: 20, LearningRate: 1, Nonlinear: true, Seed: 1}
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Dim == 0 {
		c.Dim = DefaultDim
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.LearningRate == 0 {
		c.LearningRate = 1
	}
	return c
}

// EpochStats records one training epoch's outcome.
type EpochStats struct {
	Epoch int
	// Updates is the number of class-matrix updates applied. Under the
	// perceptron rule every update is a misprediction's bundling+detaching
	// pair; the online rule additionally counts margin reinforcements of
	// correct predictions. The co-design runtime model uses it to price
	// the host-CPU update phase.
	Updates int
	// Mispredictions is the number of samples the pre-update model got
	// wrong during the pass. It never exceeds Updates; the two differ only
	// when a margin reinforces already-correct samples.
	Mispredictions int
	// TrainAccuracy is the online accuracy during the pass:
	// 1 − Mispredictions/samples.
	TrainAccuracy float64
	// ValidationAccuracy is measured after the pass when a validation
	// set is supplied (NaN-free: zero when absent).
	ValidationAccuracy float64
}

// TrainStats aggregates training progress (the data behind Fig 4).
type TrainStats struct {
	Epochs []EpochStats
}

// TotalUpdates sums class-matrix updates across epochs.
func (s *TrainStats) TotalUpdates() int {
	total := 0
	for _, e := range s.Epochs {
		total += e.Updates
	}
	return total
}

// Train builds and trains a model on train, optionally tracking accuracy
// on val after each epoch.
func Train(train, val *dataset.Dataset, cfg TrainConfig) (*Model, *TrainStats, error) {
	cfg = cfg.withDefaults()
	if train == nil || train.Samples() == 0 {
		return nil, nil, fmt.Errorf("hdc: empty training set")
	}
	r := rng.New(cfg.Seed)
	enc := NewEncoder(train.Features(), cfg.Dim, cfg.Nonlinear, r.Split())
	model := NewModel(enc, train.Classes)

	encoded := enc.EncodeBatch(train.X)
	var valEncoded *tensor.Tensor
	if val != nil && val.Samples() > 0 {
		valEncoded = enc.EncodeBatch(val.X)
	}
	stats, err := model.FitEncoded(encoded, train.Y, valEncoded, valLabels(val), cfg.Epochs, cfg.LearningRate, r.Split())
	if err != nil {
		return nil, nil, err
	}
	return model, stats, nil
}

func valLabels(val *dataset.Dataset) []int {
	if val == nil {
		return nil
	}
	return val.Y
}

// FitEncoded trains the class hypervectors on pre-encoded data. This is
// the host-CPU phase of the co-design pipeline: encoding may have happened
// on the accelerator, but bundling/detaching always runs here.
func (m *Model) FitEncoded(enc *tensor.Tensor, y []int, valEnc *tensor.Tensor, valY []int,
	epochs int, lr float32, r *rng.RNG) (*TrainStats, error) {
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
	return fitClassesHook(m.Classes, enc, y, epochs, lr, r, func(es *EpochStats) {
		if valEnc != nil {
			es.ValidationAccuracy = accuracyEncoded(m, valEnc, valY)
		}
	})
}

// fitClasses runs the perceptron-style class-hypervector training loop on
// a raw [k, d] class matrix. It is shared by the projection model, the
// record-based model, and any other encoder producing [s, d] hypervectors.
func fitClasses(classes, enc *tensor.Tensor, y []int, epochs int, lr float32, r *rng.RNG) (*TrainStats, error) {
	return fitClassesHook(classes, enc, y, epochs, lr, r, nil)
}

// fitClassesHook is fitClasses with a per-epoch callback (used to track
// validation accuracy).
func fitClassesHook(classes, enc *tensor.Tensor, y []int, epochs int, lr float32,
	r *rng.RNG, hook func(*EpochStats)) (*TrainStats, error) {
	s := enc.Shape[0]
	k := classes.Shape[0]
	stats := &TrainStats{}
	order := make([]int, s)
	for i := range order {
		order[i] = i
	}
	scores := make([]float32, k)
	for epoch := 0; epoch < epochs; epoch++ {
		r.Shuffle(s, func(a, b int) { order[a], order[b] = order[b], order[a] })
		updates := 0
		for _, idx := range order {
			e := enc.Row(idx)
			tensor.MatVec(scores, classes, e)
			pred := tensor.ArgMax(scores)
			if pred != y[idx] {
				tensor.Axpy(lr, e, classes.Row(y[idx]))
				tensor.Axpy(-lr, e, classes.Row(pred))
				updates++
			}
		}
		es := EpochStats{
			Epoch:          epoch,
			Updates:        updates,
			Mispredictions: updates, // perceptron rule: every update is a miss
			TrainAccuracy:  1 - float64(updates)/float64(s),
		}
		if hook != nil {
			hook(&es)
		}
		stats.Epochs = append(stats.Epochs, es)
	}
	return stats, nil
}

func accuracyEncoded(m *Model, enc *tensor.Tensor, y []int) float64 {
	preds := m.ClassifyEncodedBatch(enc)
	correct := 0
	for i, p := range preds {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// Accuracy evaluates the model on a labelled dataset.
func (m *Model) Accuracy(ds *dataset.Dataset) float64 {
	preds := m.PredictBatch(ds.X)
	correct := 0
	for i, p := range preds {
		if p == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Samples())
}
