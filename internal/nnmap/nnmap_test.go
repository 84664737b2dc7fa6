package nnmap

import (
	"math"
	"runtime"
	"testing"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/rng"
	"hdcedge/internal/tflite"
)

func trainedModel(t *testing.T, dim int) (*hdc.Model, *dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(24, 1500, 4, 77), 0)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.25, rng.New(78))
	m, _, err := hdc.Train(train, nil, hdc.TrainConfig{
		Dim: dim, Epochs: 8, LearningRate: 1, Nonlinear: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, train, test
}

func TestEncoderModelMatchesHDCEncoder(t *testing.T) {
	m, train, _ := trainedModel(t, 512)
	const batch = 4
	em, err := BuildEncoderModel(m.Encoder, batch)
	if err != nil {
		t.Fatal(err)
	}
	it, err := tflite.NewInterpreter(em)
	if err != nil {
		t.Fatal(err)
	}
	n := train.Features()
	for r := 0; r < batch; r++ {
		copy(it.Input(0).F32[r*n:(r+1)*n], train.X.Row(r))
	}
	if err := it.Invoke(); err != nil {
		t.Fatal(err)
	}
	// The NN encoding must equal the HDC encoding element-wise.
	e := make([]float32, m.Dim())
	for r := 0; r < batch; r++ {
		m.Encoder.Encode(e, train.X.Row(r))
		for j := range e {
			got := it.Output(0).F32[r*m.Dim()+j]
			if math.Abs(float64(got-e[j])) > 1e-4 {
				t.Fatalf("row %d elem %d: NN %v, HDC %v", r, j, got, e[j])
			}
		}
	}
}

func TestInferenceModelMatchesHDCPredictions(t *testing.T) {
	m, _, test := trainedModel(t, 512)
	const batch = 8
	im, err := BuildInferenceModel(m, batch)
	if err != nil {
		t.Fatal(err)
	}
	it, err := tflite.NewInterpreter(im)
	if err != nil {
		t.Fatal(err)
	}
	n := test.Features()
	for r := 0; r < batch; r++ {
		copy(it.Input(0).F32[r*n:(r+1)*n], test.X.Row(r))
	}
	if err := it.Invoke(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < batch; r++ {
		want := m.Predict(test.X.Row(r))
		if got := int(it.Output(0).I32[r]); got != want {
			t.Fatalf("row %d: NN predicts %d, HDC %d", r, got, want)
		}
	}
}

func TestLinearEncoderModelHasNoTanh(t *testing.T) {
	enc := hdc.NewEncoder(8, 64, false, rng.New(3))
	em, err := BuildEncoderModel(enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range em.Operators {
		if op.Op == tflite.OpTanh {
			t.Fatal("linear encoder model contains TANH")
		}
	}
}

func TestBuildRejectsBadBatch(t *testing.T) {
	enc := hdc.NewEncoder(4, 32, true, rng.New(1))
	if _, err := BuildEncoderModel(enc, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
	m := hdc.NewModel(enc, 2)
	if _, err := BuildInferenceModel(m, -1); err == nil {
		t.Fatal("negative batch accepted")
	}
}

func TestCalibrationBatches(t *testing.T) {
	ds, _ := dataset.Generate(dataset.SyntheticSpec(6, 100, 3, 9), 0)
	batches := CalibrationBatches(ds, 16, 0)
	if len(batches) != 6 { // 100/16
		t.Fatalf("%d batches, want 6", len(batches))
	}
	if len(batches[0][0]) != 16*6 {
		t.Fatalf("batch size %d values", len(batches[0][0]))
	}
	capped := CalibrationBatches(ds, 16, 2)
	if len(capped) != 2 {
		t.Fatalf("cap ignored: %d batches", len(capped))
	}
	// A set with no full batch calibrates on one batch padded with its
	// last row; an empty set yields none.
	short := ds.Subset([]int{0, 1, 2, 3, 4})
	padded := CalibrationBatches(short, 8, 0)
	if len(padded) != 1 || len(padded[0][0]) != 8*6 {
		t.Fatalf("short set: %d batches", len(padded))
	}
	for r := 0; r < 8; r++ {
		want := short.X.Row(min(r, 4))
		for j, v := range padded[0][0][r*6 : (r+1)*6] {
			if v != want[j] {
				t.Fatalf("short set row %d feature %d = %v, want %v", r, j, v, want[j])
			}
		}
	}
	if got := CalibrationBatches(ds.Subset(nil), 8, 0); len(got) != 0 {
		t.Fatalf("empty set: %d batches", len(got))
	}
}

func TestQuantizedInferenceAccuracyNearFloat(t *testing.T) {
	// The end-to-end paper path: HDC model → wide NN → int8 → compiled →
	// simulated device, with accuracy within a couple points of float.
	m, train, test := trainedModel(t, 1024)
	const batch = 16
	im, err := BuildInferenceModel(m, batch)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := QuantizeForTPU(im, train, batch, 20)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := edgetpu.Compile(qm, edgetpu.DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	if cm.DelegatedOps() < 3 {
		t.Fatalf("only %d ops delegated:\n%s", cm.DelegatedOps(), cm.Report())
	}
	dev := edgetpu.NewDevice(edgetpu.DefaultUSB())
	if _, err := dev.LoadModel(cm); err != nil {
		t.Fatal(err)
	}

	n := test.Features()
	nBatches := test.Samples() / batch
	correctQ, correctF, total := 0, 0, 0
	for bi := 0; bi < nBatches; bi++ {
		for r := 0; r < batch; r++ {
			copy(dev.Input(0).F32[r*n:(r+1)*n], test.X.Row(bi*batch+r))
		}
		if _, err := dev.Invoke(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < batch; r++ {
			idx := bi*batch + r
			if int(dev.Output(0).I32[r]) == test.Y[idx] {
				correctQ++
			}
			if m.Predict(test.X.Row(idx)) == test.Y[idx] {
				correctF++
			}
			total++
		}
	}
	accQ := float64(correctQ) / float64(total)
	accF := float64(correctF) / float64(total)
	if accQ < accF-0.03 {
		t.Fatalf("quantized accuracy %.3f vs float %.3f: degradation too large", accQ, accF)
	}
}

// TestQuantizeForTPURejectsTinyCalib: a calibration set smaller than one
// batch calibrates on one batch padded with its last row (see
// TestCalibrationBatches); only a set with no rows at all is rejected.
func TestQuantizeForTPURejectsTinyCalib(t *testing.T) {
	m, _, _ := trainedModel(t, 128)
	im, err := BuildInferenceModel(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	tiny, _ := dataset.Generate(dataset.SyntheticSpec(24, 10, 4, 1), 0)
	if _, err := QuantizeForTPU(im, tiny.Subset(nil), 64, 0); err == nil {
		t.Fatal("empty calibration set accepted")
	}
	if _, err := QuantizeForTPU(im, tiny, 64, 0); err != nil {
		t.Fatalf("10-row calibration set at batch 64: %v", err)
	}
}

// QuantizeModel on the paper's UCIHAR encoder (561 → 10,000) reads its
// float weights in one shared copy: calibration and the weight rewrite do
// not each decode the 22.4 MB of float32 weights. It allocates the int8
// weights and their buffer (half the float bytes) plus small activations.
func TestQuantizeEncoderAllocatesUnderFloatWeights(t *testing.T) {
	const n, d, batch = 561, 10000, 8
	em, err := BuildEncoderModel(hdc.NewEncoder(n, d, true, rng.New(1)), batch)
	if err != nil {
		t.Fatal(err)
	}
	calib := make([]float32, batch*n)
	rng.New(2).FillNormal(calib)
	floatBytes := uint64(4 * n * d)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := tflite.QuantizeModel(em, [][][]float32{{calib}}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	ratio := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(floatBytes)
	t.Logf("QuantizeModel allocated %.2fx the %d float weight bytes", ratio, floatBytes)
	if ratio >= 1.75 {
		t.Fatalf("QuantizeModel allocated %.2fx the float weight bytes, want < 1.75x", ratio)
	}
}
