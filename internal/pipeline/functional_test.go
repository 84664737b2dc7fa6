package pipeline

import (
	"testing"

	"hdcedge/internal/dataset"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

func functionalData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(32, 1600, 4, 404), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Split(0.25, rng.New(405))
}

func TestTrainOnDeviceLearns(t *testing.T) {
	train, test := functionalData(t)
	cfg := hdc.TrainConfig{Dim: 1024, Epochs: 8, LearningRate: 1, Nonlinear: true, Seed: 3}
	res, err := TrainOnDevice(EdgeTPU(), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Model.Accuracy(test); acc < 0.7 {
		t.Fatalf("device-trained accuracy %.3f (chance 0.25)", acc)
	}
	if res.DeviceTime.Total() <= 0 || res.DeviceTime.MACs == 0 {
		t.Fatalf("device timing not accumulated: %+v", res.DeviceTime)
	}
	if len(res.Stats.Epochs) != 8 {
		t.Fatalf("%d epochs recorded", len(res.Stats.Epochs))
	}
}

func TestDeviceTrainingTracksCPUTraining(t *testing.T) {
	// Training on int8-quantized encodings must land close to float
	// training (Fig 7's premise).
	train, test := functionalData(t)
	cfg := hdc.TrainConfig{Dim: 1024, Epochs: 8, LearningRate: 1, Nonlinear: true, Seed: 3}
	cpuModel, _, err := hdc.Train(train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	devRes, err := TrainOnDevice(EdgeTPU(), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cpuAcc := cpuModel.Accuracy(test)
	devAcc := devRes.Model.Accuracy(test)
	if devAcc < cpuAcc-0.05 {
		t.Fatalf("device training accuracy %.3f too far below CPU %.3f", devAcc, cpuAcc)
	}
}

func TestInferOnDeviceMatchesHostModel(t *testing.T) {
	train, test := functionalData(t)
	cfg := hdc.TrainConfig{Dim: 1024, Epochs: 6, LearningRate: 1, Nonlinear: true, Seed: 9}
	model, _, err := hdc.Train(train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	preds, timing, err := InferOnDevice(EdgeTPU(), model, test, train, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != test.Samples() {
		t.Fatalf("%d predictions for %d samples", len(preds), test.Samples())
	}
	devAcc := metrics.Accuracy(preds, test.Y)
	hostAcc := model.Accuracy(test)
	if devAcc < hostAcc-0.05 {
		t.Fatalf("device accuracy %.3f too far below host %.3f", devAcc, hostAcc)
	}
	if timing.Total() <= 0 {
		t.Fatal("no inference timing")
	}
}

func TestEncodeOnDevicePartialBatch(t *testing.T) {
	// Sample counts not divisible by the batch must still encode every row.
	train, _ := functionalData(t)
	sub := train.Subset([]int{0, 1, 2, 3, 4, 5, 6}) // 7 rows, batch 4
	enc := hdc.NewEncoder(sub.Features(), 256, true, rng.New(12))
	out, _, err := EncodeOnDevice(EdgeTPU(), enc, sub, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[0] != 7 || out.Shape[1] != 256 {
		t.Fatalf("encoded shape %v", out.Shape)
	}
	// Rows must be individually correct. Per-element int8 error can reach
	// ~0.15 where the wide pre-activation range meets tanh's linear
	// region, so compare at the hypervector level: the device encoding
	// must be nearly parallel to the host encoding.
	ref := make([]float32, 256)
	for r := 0; r < 7; r++ {
		enc.Encode(ref, sub.X.Row(r))
		if cos := tensor.CosineSimilarity(out.Row(r), ref); cos < 0.97 {
			t.Fatalf("row %d: device/host encoding cosine %.4f", r, cos)
		}
	}
}

func TestTrainOnDeviceRequiresAccel(t *testing.T) {
	train, _ := functionalData(t)
	if _, err := TrainOnDevice(CPUBaseline(), train, hdc.TrainConfig{Dim: 64, Epochs: 1}); err == nil {
		t.Fatal("accel-less platform accepted")
	}
}

func TestTrainOnDeviceRejectsEmpty(t *testing.T) {
	if _, err := TrainOnDevice(EdgeTPU(), nil, hdc.TrainConfig{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestInferOnDeviceProfiled(t *testing.T) {
	train, test := functionalData(t)
	model, _, err := hdc.Train(train, nil, hdc.TrainConfig{Dim: 512, Epochs: 4, LearningRate: 1, Nonlinear: true, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	// A batch that does not divide the test set, so the last invoke pads.
	const batch = 24
	preds, timing, prof, err := InferOnDeviceProfiled(EdgeTPU(), model, test, train, batch)
	if err != nil {
		t.Fatal(err)
	}
	plain, plainTiming, err := InferOnDevice(EdgeTPU(), model, test, train, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if preds[i] != plain[i] {
			t.Fatal("profiled predictions differ")
		}
	}
	if timing != plainTiming {
		t.Fatalf("profiled timing differs: %+v vs %+v", timing, plainTiming)
	}
	if batches := (test.Samples() + batch - 1) / batch; prof.Invocations != batches {
		t.Fatalf("profile holds %d invocations, want one per batch (%d)", prof.Invocations, batches)
	}
	var cycles, macs uint64
	for _, op := range prof.Ops {
		cycles += op.Cycles
		macs += op.MACs
	}
	if cycles != timing.Cycles || macs != timing.MACs {
		t.Fatalf("profile sums %d cycles, %d MACs; timing has %d, %d", cycles, macs, timing.Cycles, timing.MACs)
	}
}
