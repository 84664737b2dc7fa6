package edgetpu

import (
	"fmt"
	"testing"

	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

func BenchmarkSystolicFC(b *testing.B) {
	// The encoder matmul at functional scale (batch 32, 617 → 2000), then
	// the paper's UCIHAR shapes at d=10,000: the encoder FC for a single
	// query, a half and a full batch, and the similarity FC (10,000 → 12).
	for _, sh := range []struct{ batch, depth, units int }{
		{32, 617, 2000}, {1, 561, 10000}, {16, 561, 10000}, {32, 561, 10000}, {16, 10000, 12},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", sh.batch, sh.depth, sh.units), func(b *testing.B) {
			in, w, bias, out := randFC(rng.New(1), sh.batch, sh.depth, sh.units)
			arr := Array{Rows: 64, Cols: 64}
			b.SetBytes(int64(len(in.I8) + len(w.I8)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arr.RunFullyConnected(in, w, bias, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFloatFC runs the float FULLY_CONNECTED kernel (the one the
// quantizer's calibration pass executes) at the UCIHAR encoder shape,
// 32 × 561 → 10,000, through a one-op interpreter.
func BenchmarkFloatFC(b *testing.B) {
	const batch, depth, units = 32, 561, 10000
	r := rng.New(1)
	w := tensor.New(tensor.Float32, units, depth)
	r.FillNormal(w.F32)
	fb := tflite.NewBuilder("float-fc")
	in := fb.AddInput("in", tensor.Float32, batch, depth)
	fb.MarkOutput(fb.FullyConnected(in, fb.AddConstF32("w", w),
		fb.AddConstF32("b", tensor.New(tensor.Float32, units)), "out"))
	it, err := tflite.NewInterpreter(fb.Finish())
	if err != nil {
		b.Fatal(err)
	}
	r.FillNormal(it.Input(0).F32)
	b.SetBytes(int64(4 * (batch*depth + units*depth)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := it.Invoke(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	m := buildFloatNet(8, 100, 1000, 8, 1)
	var calib [][][]float32
	r := rng.New(2)
	for i := 0; i < 8; i++ {
		buf := make([]float32, 8*100)
		r.FillNormal(buf)
		calib = append(calib, [][]float32{buf})
	}
	qm, err := quantizeForBench(m, calib)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(qm, DefaultUSB()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceInvoke(b *testing.B) {
	m := buildFloatNet(8, 100, 1000, 8, 3)
	var calib [][][]float32
	r := rng.New(4)
	for i := 0; i < 8; i++ {
		buf := make([]float32, 8*100)
		r.FillNormal(buf)
		calib = append(calib, [][]float32{buf})
	}
	qm, err := quantizeForBench(m, calib)
	if err != nil {
		b.Fatal(err)
	}
	cm, err := Compile(qm, DefaultUSB())
	if err != nil {
		b.Fatal(err)
	}
	dev := NewDevice(DefaultUSB())
	if _, err := dev.LoadModel(cm); err != nil {
		b.Fatal(err)
	}
	r.FillNormal(dev.Input(0).F32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Invoke(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateInvoke(b *testing.B) {
	m := buildFloatNet(8, 100, 1000, 8, 5)
	var calib [][][]float32
	r := rng.New(6)
	for i := 0; i < 8; i++ {
		buf := make([]float32, 8*100)
		r.FillNormal(buf)
		calib = append(calib, [][]float32{buf})
	}
	qm, err := quantizeForBench(m, calib)
	if err != nil {
		b.Fatal(err)
	}
	cm, err := Compile(qm, DefaultUSB())
	if err != nil {
		b.Fatal(err)
	}
	dev := NewDevice(DefaultUSB())
	if _, err := dev.LoadModel(cm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.EstimateInvoke(); err != nil {
			b.Fatal(err)
		}
	}
}

// quantizeForBench mirrors quantizeNet without a testing.T.
func quantizeForBench(m *tflite.Model, calib [][][]float32) (*tflite.Model, error) {
	return tflite.QuantizeModel(m, calib)
}
