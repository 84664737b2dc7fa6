package pipeline

import (
	"fmt"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/nnmap"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// Every functional (actually executed) device run below drives one
// ResilientRunner through runBatches. A healthy run is a run under the zero
// fault plan: the runner is then a zero-overhead pass-through, so its
// encodings, predictions and timing are exactly the bare device's.

// FunctionalResult is the outcome of a functional pipeline run.
type FunctionalResult struct {
	Model *hdc.Model
	Stats *hdc.TrainStats
	// DeviceTime accumulates the simulated accelerator timing across all
	// invocations of the run.
	DeviceTime edgetpu.Timing
}

// CompileEncoder builds, quantizes and compiles the encoder model for the
// platform's accelerator.
func CompileEncoder(p Platform, enc *hdc.Encoder, calib *dataset.Dataset, batch int) (*edgetpu.CompiledModel, error) {
	m, err := nnmap.BuildEncoderModel(enc, batch)
	if err != nil {
		return nil, err
	}
	return compileGraph(p, "encoder", m, calib, batch)
}

// CompileInference builds, quantizes and compiles the full inference model
// for the platform's accelerator.
func CompileInference(p Platform, model *hdc.Model, calib *dataset.Dataset, batch int) (*edgetpu.CompiledModel, error) {
	m, err := nnmap.BuildInferenceModel(model, batch)
	if err != nil {
		return nil, err
	}
	return compileGraph(p, "inference", m, calib, batch)
}

// compileGraph quantizes a built float graph against calib and compiles it
// for the platform's accelerator, refusing a graph that delegated nothing.
func compileGraph(p Platform, what string, m *tflite.Model, calib *dataset.Dataset, batch int) (*edgetpu.CompiledModel, error) {
	if !p.HasAccel() {
		return nil, fmt.Errorf("pipeline: platform %s has no accelerator", p.Name)
	}
	qm, err := nnmap.QuantizeForTPU(m, calib, batch, calibBatches)
	if err != nil {
		return nil, err
	}
	cm, err := edgetpu.Compile(qm, *p.Accel)
	if err != nil {
		return nil, err
	}
	if cm.DelegatedOps() == 0 {
		return nil, fmt.Errorf("pipeline: %s model did not delegate: %v", what, cm.Warnings)
	}
	return cm, nil
}

// runBatches drives every row of ds through the runner, batch rows per
// invoke. The final partial batch is padded with the last row, and every
// invoke is a full one, so a padded batch costs what a full batch does.
// After each invoke read receives the runner's output tensor once per real
// row: sample i sits at row r of out.
func runBatches(runner *ResilientRunner, ds *dataset.Dataset, batch int, read func(out *tensor.Tensor, i, r int)) (edgetpu.Timing, error) {
	n, s := ds.Features(), ds.Samples()
	var total edgetpu.Timing
	for start := 0; start < s; start += batch {
		timing, err := runner.InvokeBatch(0, func(in *tensor.Tensor) {
			for r := 0; r < batch; r++ {
				copy(in.F32[r*n:(r+1)*n], ds.X.Row(min(start+r, s-1)))
			}
		})
		if err != nil {
			return edgetpu.Timing{}, err
		}
		total.Add(timing)
		out := runner.Output(0)
		for r := 0; r < batch && start+r < s; r++ {
			read(out, start+r, r)
		}
	}
	return total, nil
}

// TrainOnDevice runs the co-design training loop functionally: base
// hypervectors are generated on the host, the encoder model is quantized
// and compiled for the accelerator, the training set is encoded batch by
// batch on the simulated device, and the class hypervectors are trained on
// the host from the device-produced (int8-quantized) encodings — exactly
// the paper's Fig 1 flow.
func TrainOnDevice(p Platform, train *dataset.Dataset, cfg hdc.TrainConfig) (*FunctionalResult, error) {
	res, _, err := TrainOnDeviceResilient(p, train, cfg, edgetpu.FaultPlan{}, DefaultRecoveryPolicy())
	return res, err
}

// TrainOnDeviceResilient is TrainOnDevice with the training-set encoding
// driven under the given fault plan. Because retries, reloads and the host
// fallback all reproduce the same quantized encodings, the trained model is
// identical to the healthy run's — faults cost time, not accuracy.
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

// EncodeOnDevice encodes every row of ds through the accelerator's
// quantized encoder model, returning the [samples, d] float matrix of
// (quantization-faithful) hypervectors plus accumulated device timing.
func EncodeOnDevice(p Platform, enc *hdc.Encoder, ds *dataset.Dataset, batch int) (*tensor.Tensor, edgetpu.Timing, error) {
	out, timing, _, err := EncodeOnDeviceResilient(p, enc, ds, batch, edgetpu.FaultPlan{}, DefaultRecoveryPolicy())
	return out, timing, err
}

// EncodeOnDeviceResilient is EncodeOnDevice under the given fault plan:
// every transient failure is absorbed by retry, reload, or host fallback.
func EncodeOnDeviceResilient(p Platform, enc *hdc.Encoder, ds *dataset.Dataset, batch int, plan edgetpu.FaultPlan, policy RecoveryPolicy) (*tensor.Tensor, edgetpu.Timing, *ReliabilityReport, error) {
	var zero edgetpu.Timing
	cm, err := CompileEncoder(p, enc, ds, batch)
	if err != nil {
		return nil, zero, nil, err
	}
	runner, err := NewResilientRunner(p, cm, plan, policy)
	if err != nil {
		return nil, zero, nil, err
	}
	d := enc.Dim()
	encoded := tensor.New(tensor.Float32, ds.Samples(), d)
	total, err := runBatches(runner, ds, batch, func(out *tensor.Tensor, i, r int) {
		copy(encoded.Row(i), out.F32[r*d:(r+1)*d])
	})
	if err != nil {
		return nil, zero, nil, err
	}
	report := runner.Report()
	return encoded, total, &report, nil
}

// InferOnDevice classifies every row of test with the full inference
// model on the simulated accelerator. calib provides the representative
// dataset for quantization (normally the training set). It returns
// predictions and accumulated device timing.
func InferOnDevice(p Platform, model *hdc.Model, test, calib *dataset.Dataset, batch int) ([]int, edgetpu.Timing, error) {
	preds, timing, _, err := InferOnDeviceResilient(p, model, test, calib, batch, edgetpu.FaultPlan{}, DefaultRecoveryPolicy())
	return preds, timing, err
}

// InferOnDeviceProfiled is InferOnDevice with a per-op execution profile
// accumulated across all invocations.
func InferOnDeviceProfiled(p Platform, model *hdc.Model, test, calib *dataset.Dataset, batch int) ([]int, edgetpu.Timing, *edgetpu.Profiler, error) {
	runner, err := inferRunner(p, model, calib, batch, edgetpu.FaultPlan{}, DefaultRecoveryPolicy())
	if err != nil {
		return nil, edgetpu.Timing{}, nil, err
	}
	prof := runner.Device().AttachProfiler()
	preds, timing, err := classify(runner, test, batch)
	if err != nil {
		return nil, edgetpu.Timing{}, nil, err
	}
	return preds, timing, prof, nil
}

// InferOnDeviceResilient is InferOnDevice under the given fault plan.
// Unlike link faults and resets (which are absorbed exactly), parameter SEUs
// in the plan corrupt resident weights until the next reload, so predictions
// can genuinely degrade — this is the entry point the SEU sensitivity sweep
// uses.
func InferOnDeviceResilient(p Platform, model *hdc.Model, test, calib *dataset.Dataset, batch int, plan edgetpu.FaultPlan, policy RecoveryPolicy) ([]int, edgetpu.Timing, *ReliabilityReport, error) {
	runner, err := inferRunner(p, model, calib, batch, plan, policy)
	if err != nil {
		return nil, edgetpu.Timing{}, nil, err
	}
	preds, timing, err := classify(runner, test, batch)
	if err != nil {
		return nil, edgetpu.Timing{}, nil, err
	}
	report := runner.Report()
	return preds, timing, &report, nil
}

// inferRunner compiles the inference model and arms a runner for it.
func inferRunner(p Platform, model *hdc.Model, calib *dataset.Dataset, batch int, plan edgetpu.FaultPlan, policy RecoveryPolicy) (*ResilientRunner, error) {
	cm, err := CompileInference(p, model, calib, batch)
	if err != nil {
		return nil, err
	}
	return NewResilientRunner(p, cm, plan, policy)
}

// classify runs every row of test through an inference runner and returns
// the predicted classes.
func classify(runner *ResilientRunner, test *dataset.Dataset, batch int) ([]int, edgetpu.Timing, error) {
	preds := make([]int, test.Samples())
	timing, err := runBatches(runner, test, batch, func(out *tensor.Tensor, i, r int) {
		preds[i] = int(out.I32[r])
	})
	return preds, timing, err
}
