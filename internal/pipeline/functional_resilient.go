package pipeline

import (
	"fmt"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/nnmap"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// CompileEncoder builds, quantizes and compiles the encoder model for the
// platform's accelerator — the shared front half of the healthy and
// resilient encoding paths.
func CompileEncoder(p Platform, enc *hdc.Encoder, calib *dataset.Dataset, batch int) (*edgetpu.CompiledModel, error) {
	em, err := nnmap.BuildEncoderModel(enc, batch)
	if err != nil {
		return nil, err
	}
	qm, err := nnmap.QuantizeForTPU(em, calib, batch, calibBatches)
	if err != nil {
		return nil, err
	}
	cm, err := edgetpu.Compile(qm, *p.Accel)
	if err != nil {
		return nil, err
	}
	if cm.DelegatedOps() == 0 {
		return nil, fmt.Errorf("pipeline: encoder model did not delegate: %v", cm.Warnings)
	}
	return cm, nil
}

// CompileInference builds, quantizes and compiles the full inference model
// for the platform's accelerator.
func CompileInference(p Platform, model *hdc.Model, calib *dataset.Dataset, batch int) (*edgetpu.CompiledModel, error) {
	im, err := nnmap.BuildInferenceModel(model, batch)
	if err != nil {
		return nil, err
	}
	qm, err := nnmap.QuantizeForTPU(im, calib, batch, calibBatches)
	if err != nil {
		return nil, err
	}
	cm, err := edgetpu.Compile(qm, *p.Accel)
	if err != nil {
		return nil, err
	}
	if cm.DelegatedOps() == 0 {
		return nil, fmt.Errorf("pipeline: inference model did not delegate: %v", cm.Warnings)
	}
	return cm, nil
}

// EncodeOnDeviceResilient is EncodeOnDevice running through a
// ResilientRunner: the accelerator is driven under the given fault plan and
// every transient failure is absorbed by retry, reload, or host fallback.
// With a disabled plan the timing is bit-identical to EncodeOnDevice.
func EncodeOnDeviceResilient(p Platform, enc *hdc.Encoder, ds *dataset.Dataset, batch int, plan edgetpu.FaultPlan, policy RecoveryPolicy) (*tensor.Tensor, edgetpu.Timing, *ReliabilityReport, error) {
	var zero edgetpu.Timing
	if !p.HasAccel() {
		return nil, zero, nil, fmt.Errorf("pipeline: platform %s has no accelerator", p.Name)
	}
	cm, err := CompileEncoder(p, enc, ds, batch)
	if err != nil {
		return nil, zero, nil, err
	}
	runner, err := NewResilientRunner(p, cm, plan, policy)
	if err != nil {
		return nil, zero, nil, err
	}

	n := ds.Features()
	d := enc.Dim()
	s := ds.Samples()
	out := tensor.New(tensor.Float32, s, d)
	var total edgetpu.Timing
	for start := 0; start < s; start += batch {
		end := start + batch
		if end > s {
			end = s
		}
		first := start
		timing, err := runner.InvokeBatch(0, func(in *tensor.Tensor) {
			for r := 0; r < batch; r++ {
				src := first + r
				if src >= s {
					src = s - 1 // pad the final partial batch with the last row
				}
				copy(in.F32[r*n:(r+1)*n], ds.X.Row(src))
			}
		})
		if err != nil {
			return nil, zero, nil, err
		}
		total.Add(timing)
		encOut := runner.Output(0)
		for r := 0; start+r < end; r++ {
			copy(out.Row(start+r), encOut.F32[r*d:(r+1)*d])
		}
	}
	report := runner.Report()
	return out, total, &report, nil
}

// TrainOnDeviceResilient is TrainOnDevice with the training-set encoding
// driven through a ResilientRunner under the given fault plan. Because
// retries, reloads and the host fallback all reproduce the same quantized
// encodings, the trained model is identical to the healthy run's — faults
// cost time, not accuracy.
func TrainOnDeviceResilient(p Platform, train *dataset.Dataset, cfg hdc.TrainConfig, plan edgetpu.FaultPlan, policy RecoveryPolicy) (*FunctionalResult, *ReliabilityReport, error) {
	if !p.HasAccel() {
		return nil, nil, fmt.Errorf("pipeline: platform %s has no accelerator", p.Name)
	}
	if train == nil || train.Samples() == 0 {
		return nil, nil, fmt.Errorf("pipeline: empty training set")
	}
	if cfg.Dim == 0 {
		cfg.Dim = hdc.DefaultDim
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 20
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 1
	}
	r := rng.New(cfg.Seed)
	enc := hdc.NewEncoder(train.Features(), cfg.Dim, cfg.Nonlinear, r.Split())

	encoded, timing, report, err := EncodeOnDeviceResilient(p, enc, train, DefaultBatch, plan, policy)
	if err != nil {
		return nil, nil, err
	}
	model := hdc.NewModel(enc, train.Classes)
	stats, err := model.FitEncoded(encoded, train.Y, nil, nil, cfg.Epochs, cfg.LearningRate, r.Split())
	if err != nil {
		return nil, nil, err
	}
	return &FunctionalResult{Model: model, Stats: stats, DeviceTime: timing}, report, nil
}

// InferOnDeviceResilient is InferOnDevice driven through a ResilientRunner.
// Unlike link faults and resets (which are absorbed exactly), parameter SEUs
// in the plan corrupt resident weights until the next reload, so predictions
// can genuinely degrade — this is the entry point the SEU sensitivity sweep
// uses.
func InferOnDeviceResilient(p Platform, model *hdc.Model, test, calib *dataset.Dataset, batch int, plan edgetpu.FaultPlan, policy RecoveryPolicy) ([]int, edgetpu.Timing, *ReliabilityReport, error) {
	var zero edgetpu.Timing
	if !p.HasAccel() {
		return nil, zero, nil, fmt.Errorf("pipeline: platform %s has no accelerator", p.Name)
	}
	cm, err := CompileInference(p, model, calib, batch)
	if err != nil {
		return nil, zero, nil, err
	}
	runner, err := NewResilientRunner(p, cm, plan, policy)
	if err != nil {
		return nil, zero, nil, err
	}

	n := test.Features()
	s := test.Samples()
	preds := make([]int, s)
	var total edgetpu.Timing
	for start := 0; start < s; start += batch {
		end := start + batch
		if end > s {
			end = s
		}
		first := start
		timing, err := runner.InvokeBatch(0, func(in *tensor.Tensor) {
			for r := 0; r < batch; r++ {
				src := first + r
				if src >= s {
					src = s - 1
				}
				copy(in.F32[r*n:(r+1)*n], test.X.Row(src))
			}
		})
		if err != nil {
			return nil, zero, nil, err
		}
		total.Add(timing)
		out := runner.Output(0)
		for r := 0; start+r < end; r++ {
			preds[start+r] = int(out.I32[r])
		}
	}
	report := runner.Report()
	return preds, total, &report, nil
}
