package pipeline

import (
	"fmt"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// FunctionalResult is the outcome of a functional (actually executed)
// pipeline run.
type FunctionalResult struct {
	Model *hdc.Model
	Stats *hdc.TrainStats
	// DeviceTime accumulates the simulated accelerator timing across all
	// invocations of the run.
	DeviceTime edgetpu.Timing
}

// TrainOnDevice runs the co-design training loop functionally: base
// hypervectors are generated on the host, the encoder model is quantized
// and compiled for the accelerator, the training set is encoded batch by
// batch on the simulated device, and the class hypervectors are trained on
// the host from the device-produced (int8-quantized) encodings — exactly
// the paper's Fig 1 flow.
func TrainOnDevice(p Platform, train *dataset.Dataset, cfg hdc.TrainConfig) (*FunctionalResult, error) {
	if !p.HasAccel() {
		return nil, fmt.Errorf("pipeline: platform %s has no accelerator", p.Name)
	}
	if train == nil || train.Samples() == 0 {
		return nil, fmt.Errorf("pipeline: empty training set")
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

	encoded, timing, err := EncodeOnDevice(p, enc, train, DefaultBatch)
	if err != nil {
		return nil, err
	}
	model := hdc.NewModel(enc, train.Classes)
	stats, err := model.FitEncoded(encoded, train.Y, nil, nil, cfg.Epochs, cfg.LearningRate, r.Split())
	if err != nil {
		return nil, err
	}
	return &FunctionalResult{Model: model, Stats: stats, DeviceTime: timing}, nil
}

// EncodeOnDevice encodes every row of ds through the accelerator's
// quantized encoder model, returning the [samples, d] float matrix of
// (quantization-faithful) hypervectors plus accumulated device timing.
func EncodeOnDevice(p Platform, enc *hdc.Encoder, ds *dataset.Dataset, batch int) (*tensor.Tensor, edgetpu.Timing, error) {
	var zero edgetpu.Timing
	cm, err := CompileEncoder(p, enc, ds, batch)
	if err != nil {
		return nil, zero, err
	}
	dev := edgetpu.NewDevice(*p.Accel)
	if _, err := dev.LoadModel(cm); err != nil {
		return nil, zero, err
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
		in := dev.Input(0)
		for r := 0; r < batch; r++ {
			src := start + r
			if src >= s {
				src = s - 1 // pad the final partial batch with the last row
			}
			copy(in.F32[r*n:(r+1)*n], ds.X.Row(src))
		}
		timing, err := dev.Invoke()
		if err != nil {
			return nil, zero, err
		}
		total.Add(timing)
		encOut := dev.Output(0)
		for r := 0; start+r < end; r++ {
			copy(out.Row(start+r), encOut.F32[r*d:(r+1)*d])
		}
	}
	return out, total, nil
}

// InferOnDevice classifies every row of test with the full inference
// model on the simulated accelerator. calib provides the representative
// dataset for quantization (normally the training set). It returns
// predictions and accumulated device timing.
func InferOnDevice(p Platform, model *hdc.Model, test, calib *dataset.Dataset, batch int) ([]int, edgetpu.Timing, error) {
	preds, timing, _, err := inferOnDevice(p, model, test, calib, batch, false)
	return preds, timing, err
}

// InferOnDeviceProfiled is InferOnDevice with a per-op execution profile
// accumulated across all invocations.
func InferOnDeviceProfiled(p Platform, model *hdc.Model, test, calib *dataset.Dataset, batch int) ([]int, edgetpu.Timing, *edgetpu.Profiler, error) {
	return inferOnDevice(p, model, test, calib, batch, true)
}

func inferOnDevice(p Platform, model *hdc.Model, test, calib *dataset.Dataset, batch int, profile bool) ([]int, edgetpu.Timing, *edgetpu.Profiler, error) {
	var zero edgetpu.Timing
	if !p.HasAccel() {
		return nil, zero, nil, fmt.Errorf("pipeline: platform %s has no accelerator", p.Name)
	}
	cm, err := CompileInference(p, model, calib, batch)
	if err != nil {
		return nil, zero, nil, err
	}
	dev := edgetpu.NewDevice(*p.Accel)
	if _, err := dev.LoadModel(cm); err != nil {
		return nil, zero, nil, err
	}
	var prof *edgetpu.Profiler
	if profile {
		prof = dev.AttachProfiler()
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
		in := dev.Input(0)
		for r := 0; r < batch; r++ {
			src := start + r
			if src >= s {
				src = s - 1
			}
			copy(in.F32[r*n:(r+1)*n], test.X.Row(src))
		}
		var timing edgetpu.Timing
		if profile {
			timing, _, err = dev.InvokeProfiled()
		} else {
			timing, err = dev.Invoke()
		}
		if err != nil {
			return nil, zero, nil, err
		}
		total.Add(timing)
		for r := 0; start+r < end; r++ {
			preds[start+r] = int(dev.Output(0).I32[r])
		}
	}
	return preds, total, prof, nil
}
