// Package hdcedge is an algorithm-hardware co-design framework for
// hyperdimensional computing (HDC) on edge accelerators, reproducing
// "Algorithm-Hardware Co-Design for Efficient Brain-Inspired
// Hyperdimensional Learning on Edge" (Ni, Kim, Rosing, Imani — DATE 2022).
//
// The package is a facade over the implementation packages:
//
//   - HDC core (encoding, training, classification): internal/hdc
//   - Bootstrap-aggregating trainer and model fusion: internal/bagging
//   - HDC ↔ hyper-wide-NN mapping: internal/nnmap
//   - TFLite-style model format, interpreter, quantizer: internal/tflite
//   - Edge TPU simulator (systolic MXU, compiler, runtime): internal/edgetpu
//   - Host CPU cost models (i5-5250U, Cortex-A53): internal/cpuarch
//   - Co-design orchestration and runtime models: internal/pipeline
//   - Synthetic Table I dataset generators: internal/dataset
//   - Paper artifact drivers (figures and tables): internal/experiments
//
// A minimal session:
//
//	ds, _ := hdcedge.Generate(hdcedge.SyntheticSpec(64, 4000, 6, 1), 0)
//	train, test := ds.Split(0.25, hdcedge.NewRNG(2))
//	model, _, _ := hdcedge.Train(train, nil, hdcedge.DefaultTrainConfig())
//	preds, timing, _ := hdcedge.InferOnDevice(hdcedge.EdgeTPU(), model, test, train, 8)
package hdcedge

import (
	"io"

	"hdcedge/internal/bagging"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/experiments"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/rng"
)

// --- HDC core ---

// Model is a trained HDC classifier (an encoder plus class hypervectors).
type Model = hdc.Model

// Encoder maps feature vectors to hypervectors.
type Encoder = hdc.Encoder

// TrainConfig controls HDC training.
type TrainConfig = hdc.TrainConfig

// TrainStats records per-epoch training progress.
type TrainStats = hdc.TrainStats

// DefaultDim is the paper's hypervector width, d = 10,000.
const DefaultDim = hdc.DefaultDim

// DefaultTrainConfig returns the paper's fully-trained-model settings
// (d = 10,000, 20 iterations, tanh encoding).
func DefaultTrainConfig() TrainConfig { return hdc.DefaultTrainConfig() }

// Train trains an HDC classifier on the host CPU.
func Train(train, val *Dataset, cfg TrainConfig) (*Model, *TrainStats, error) {
	return hdc.Train(train, val, cfg)
}

// LoadModel reads a model saved with Model.Save.
func LoadModel(path string) (*Model, error) { return hdc.LoadModel(path) }

// NewEncoder draws base hypervectors for nFeatures inputs at width dim.
func NewEncoder(nFeatures, dim int, nonlinear bool, r *RNG) *Encoder {
	return hdc.NewEncoder(nFeatures, dim, nonlinear, r)
}

// --- Bagging ---

// BaggingConfig controls the bootstrap-aggregating trainer.
type BaggingConfig = bagging.Config

// Ensemble is a trained bag of HDC sub-models.
type Ensemble = bagging.Ensemble

// DefaultBaggingConfig returns the paper's operating point
// (M = 4, d' = 2500, I' = 6, α = 0.6, β disabled).
func DefaultBaggingConfig() BaggingConfig { return bagging.DefaultConfig() }

// TrainBagging trains the ensemble; call Ensemble.Fuse for the single
// full-width inference model.
func TrainBagging(train *Dataset, cfg BaggingConfig) (*Ensemble, *bagging.Stats, error) {
	return bagging.Train(train, cfg)
}

// --- Datasets ---

// Dataset is a labelled design matrix.
type Dataset = dataset.Dataset

// DatasetSpec describes a synthetic dataset.
type DatasetSpec = dataset.Spec

// Catalog returns the five Table I dataset specs.
func Catalog() []DatasetSpec { return dataset.Catalog() }

// CatalogSpec looks up a Table I dataset by name.
func CatalogSpec(name string) (DatasetSpec, error) { return dataset.CatalogSpec(name) }

// SyntheticSpec builds a parametric dataset spec.
func SyntheticSpec(features, samples, classes int, seed uint64) DatasetSpec {
	return dataset.SyntheticSpec(features, samples, classes, seed)
}

// Generate materializes a dataset spec; maxSamples > 0 caps the rows.
func Generate(spec DatasetSpec, maxSamples int) (*Dataset, error) {
	return dataset.Generate(spec, maxSamples)
}

// --- Randomness ---

// RNG is the framework's deterministic random generator.
type RNG = rng.RNG

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// --- Co-design pipeline ---

// Platform pairs a host CPU with an optional accelerator.
type Platform = pipeline.Platform

// DeviceTiming is the accelerator's per-invocation phase timing.
type DeviceTiming = edgetpu.Timing

// CPUBaseline returns the host-only baseline platform.
func CPUBaseline() Platform { return pipeline.CPUBaseline() }

// EdgeTPU returns the proposed host-plus-accelerator platform.
func EdgeTPU() Platform { return pipeline.EdgeTPU() }

// RaspberryPi returns the Table II embedded comparison platform.
func RaspberryPi() Platform { return pipeline.RaspberryPi() }

// TrainOnDevice runs the co-design training loop: encoding on the
// simulated accelerator, class-hypervector updates on the host.
func TrainOnDevice(p Platform, train *Dataset, cfg TrainConfig) (*pipeline.FunctionalResult, error) {
	return pipeline.TrainOnDevice(p, train, cfg)
}

// InferOnDevice classifies test rows with the quantized wide-NN model on
// the simulated accelerator. calib supplies the representative dataset for
// post-training quantization (normally the training set).
func InferOnDevice(p Platform, m *Model, test, calib *Dataset, batch int) ([]int, DeviceTiming, error) {
	return pipeline.InferOnDevice(p, m, test, calib, batch)
}

// --- Fault injection and resilient execution ---

// FaultPlan configures seeded fault injection on the simulated accelerator:
// transient link errors, spontaneous device resets, and parameter-SRAM bit
// upsets. The zero value injects nothing.
type FaultPlan = edgetpu.FaultPlan

// RecoveryPolicy controls retry, backoff, reload, and circuit-breaker
// behavior of the resilient runtime.
type RecoveryPolicy = pipeline.RecoveryPolicy

// ReliabilityReport records what the resilient runtime did to keep a run
// alive under faults.
type ReliabilityReport = pipeline.ReliabilityReport

// ParseFaultPlan builds a plan from a spec string such as
// "link=0.01,reset=0.001,seu=1e-7,timeout=5ms".
func ParseFaultPlan(spec string, seed uint64) (FaultPlan, error) {
	return edgetpu.ParseFaultPlan(spec, seed)
}

// DefaultRecoveryPolicy returns the standard retry/backoff/breaker settings.
func DefaultRecoveryPolicy() RecoveryPolicy { return pipeline.DefaultRecoveryPolicy() }

// TrainOnDeviceResilient is TrainOnDevice with the accelerator driven under
// the fault plan; transient faults are absorbed by retry, reload, and
// host-CPU fallback, so the trained model matches the healthy run's.
func TrainOnDeviceResilient(p Platform, train *Dataset, cfg TrainConfig, plan FaultPlan, policy RecoveryPolicy) (*pipeline.FunctionalResult, *ReliabilityReport, error) {
	return pipeline.TrainOnDeviceResilient(p, train, cfg, plan, policy)
}

// InferOnDeviceResilient is InferOnDevice under a fault plan. Parameter SEUs
// can genuinely degrade predictions between reloads; everything else is
// absorbed exactly.
func InferOnDeviceResilient(p Platform, m *Model, test, calib *Dataset, batch int, plan FaultPlan, policy RecoveryPolicy) ([]int, DeviceTiming, *ReliabilityReport, error) {
	return pipeline.InferOnDeviceResilient(p, m, test, calib, batch, plan, policy)
}

// --- Paper artifacts ---

// ExperimentConfig scales the functional parts of the evaluation suite.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig returns the standard evaluation scale.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// Experiments lists every reproducible paper artifact.
func Experiments() []string { return experiments.AllExperiments }

// RunExperiment regenerates one paper table or figure, rendering to w.
func RunExperiment(name string, cfg ExperimentConfig, w io.Writer) error {
	return experiments.RunOne(name, cfg, w)
}
