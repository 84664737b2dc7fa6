package edgetpu

import (
	"testing"
	"testing/quick"

	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// randFC builds a random quantized FC problem of the given dimensions.
func randFC(r *rng.RNG, batch, depth, units int) (in, w, bias, out *tensor.Tensor) {
	in = tensor.New(tensor.Int8, batch, depth)
	in.Quant = &tensor.QuantParams{Scale: 0.02, ZeroPoint: int32(r.Intn(9) - 4)}
	for i := range in.I8 {
		in.I8[i] = int8(r.Intn(256) - 128)
	}
	w = tensor.New(tensor.Int8, units, depth)
	w.Quant = &tensor.QuantParams{Scale: 0.015, ZeroPoint: 0}
	for i := range w.I8 {
		w.I8[i] = int8(r.Intn(256) - 128)
	}
	bias = tensor.New(tensor.Int32, units)
	bias.Quant = &tensor.QuantParams{Scale: in.Quant.Scale * w.Quant.Scale}
	for i := range bias.I32 {
		bias.I32[i] = int32(r.Intn(2000) - 1000)
	}
	out = tensor.New(tensor.Int8, batch, units)
	out.Quant = &tensor.QuantParams{Scale: 0.05, ZeroPoint: int32(r.Intn(5) - 2)}
	return in, w, bias, out
}

// naiveFC is the test oracle for the int8 FULLY_CONNECTED kernel, written
// independently of it: a plain triple loop with int64 accumulation of
// (in-zpIn)·w + bias, then fixed-point requantization and an int8 clamp.
func naiveFC(t testing.TB, in, w, bias, out *tensor.Tensor) []int8 {
	t.Helper()
	qm, err := tflite.QuantizeMultiplier(in.Quant.Scale * w.Quant.Scale / out.Quant.Scale)
	if err != nil {
		t.Fatal(err)
	}
	batch, depth, units := in.Shape[0], in.Shape[1], w.Shape[0]
	got := make([]int8, batch*units)
	for b := 0; b < batch; b++ {
		for u := 0; u < units; u++ {
			acc := int64(bias.I32[u])
			for k := 0; k < depth; k++ {
				acc += (int64(in.I8[b*depth+k]) - int64(in.Quant.ZeroPoint)) * int64(w.I8[u*depth+k])
			}
			r := int64(out.Quant.ZeroPoint) + int64(qm.Apply(int32(acc)))
			if r > 127 {
				r = 127
			} else if r < -128 {
				r = -128
			}
			got[b*units+u] = int8(r)
		}
	}
	return got
}

func TestSystolicFCBitExactWithReference(t *testing.T) {
	r := rng.New(21)
	a := Array{Rows: 64, Cols: 64}
	// Dimensions straddling tile boundaries in every combination.
	dims := [][3]int{
		{1, 1, 1}, {1, 64, 64}, {2, 63, 65}, {3, 65, 63},
		{5, 128, 128}, {4, 130, 250}, {7, 27, 500}, {2, 700, 40},
	}
	for _, d := range dims {
		in, w, bias, out := randFC(r, d[0], d[1], d[2])
		want := naiveFC(t, in, w, bias, out)
		if _, err := a.RunFullyConnected(in, w, bias, out); err != nil {
			t.Fatalf("dims %v: %v", d, err)
		}
		for i := range want {
			if out.I8[i] != want[i] {
				t.Fatalf("dims %v: elem %d = %d, reference %d", d, i, out.I8[i], want[i])
			}
		}
	}
}

func TestSystolicFCRejectsAsymmetricWeights(t *testing.T) {
	r := rng.New(6)
	in, w, bias, out := randFC(r, 1, 8, 4)
	w.Quant.ZeroPoint = 5
	if _, err := (Array{Rows: 64, Cols: 64}).RunFullyConnected(in, w, bias, out); err == nil {
		t.Fatal("asymmetric weights accepted")
	}
}

func TestSystolicFCRejectsFloat(t *testing.T) {
	in := tensor.New(tensor.Float32, 1, 4)
	w := tensor.New(tensor.Int8, 2, 4)
	bias := tensor.New(tensor.Int32, 2)
	out := tensor.New(tensor.Int8, 1, 2)
	if _, err := (Array{Rows: 8, Cols: 8}).RunFullyConnected(in, w, bias, out); err == nil {
		t.Fatal("float input accepted")
	}
}

func TestFCStatsTileCounts(t *testing.T) {
	a := Array{Rows: 64, Cols: 64}
	s := a.fcCycles(32, 784, 10000)
	if s.TilesK != 13 {
		t.Errorf("TilesK = %d, want 13", s.TilesK)
	}
	if s.TilesU != 157 {
		t.Errorf("TilesU = %d, want 157", s.TilesU)
	}
	if s.MACs != 32*784*10000 {
		t.Errorf("MACs = %d", s.MACs)
	}
	perTile := uint64(64 + 32 + 64 + 64)
	if want := uint64(13*157) * perTile; s.Cycles != want {
		t.Errorf("Cycles = %d, want %d", s.Cycles, want)
	}
}

func TestFCCyclesMonotoneInBatch(t *testing.T) {
	a := Array{Rows: 64, Cols: 64}
	prev := uint64(0)
	for batch := 1; batch <= 256; batch *= 2 {
		c := a.fcCycles(batch, 600, 10000).Cycles
		if c <= prev {
			t.Fatalf("cycles not increasing with batch: %d at batch %d", c, batch)
		}
		prev = c
	}
}

func TestFCBatchAmortization(t *testing.T) {
	// Per-sample cycles must fall as batch grows (pipeline fill amortizes).
	a := Array{Rows: 64, Cols: 64}
	per1 := float64(a.fcCycles(1, 600, 10000).Cycles)
	per64 := float64(a.fcCycles(64, 600, 10000).Cycles) / 64
	if per64 >= per1 {
		t.Fatalf("no batch amortization: %v per sample at batch 64 vs %v at batch 1", per64, per1)
	}
}

func TestLUTCycles(t *testing.T) {
	a := Array{Rows: 64, Cols: 64}
	if got := a.lutCycles(64); got != 1 {
		t.Errorf("lutCycles(64) = %d", got)
	}
	if got := a.lutCycles(65); got != 2 {
		t.Errorf("lutCycles(65) = %d", got)
	}
	if got := a.lutCycles(0); got != 0 {
		t.Errorf("lutCycles(0) = %d", got)
	}
}

// fcDevice compiles a single int8 FULLY_CONNECTED over the given problem
// and loads it on a device, so the delegated FC runs through Device.
func fcDevice(t testing.TB, in, w, bias, out *tensor.Tensor) *Device {
	t.Helper()
	b := tflite.NewBuilder("fc")
	inIdx := b.AddInput("in", tensor.Int8, in.Shape...)
	b.SetQuant(inIdx, *in.Quant)
	outIdx := b.FullyConnected(inIdx, b.AddConstI8("w", w), b.AddConstI32("b", bias), "out")
	b.SetQuant(outIdx, *out.Quant)
	b.MarkOutput(outIdx)
	cm, err := Compile(b.Finish(), DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	if cm.DelegatedOps() != 1 {
		t.Fatalf("FC not delegated: %v", cm.Placements)
	}
	dev := NewDevice(DefaultUSB())
	if _, err := dev.LoadModel(cm); err != nil {
		t.Fatal(err)
	}
	return dev
}

// Property: the array's FC and a delegated FC invoked through the device on
// a random row prefix (non-zero input zero point) both agree with the naive
// oracle; device rows past the prefix are never written.
func TestQuickSystolicMatchesReference(t *testing.T) {
	a := Array{Rows: 16, Cols: 16}
	const sentinel = int8(0x55)
	f := func(seed uint64, b8, d8, u8, r8 uint8) bool {
		batch := int(b8%6) + 1
		depth := int(d8%70) + 1
		units := int(u8%70) + 1
		rows := int(r8)%batch + 1
		r := rng.New(seed)
		in, w, bias, out := randFC(r, batch, depth, units)
		if in.Quant.ZeroPoint == 0 {
			in.Quant.ZeroPoint = 3
		}
		want := naiveFC(t, in, w, bias, out)
		if _, err := a.RunFullyConnected(in, w, bias, out); err != nil {
			t.Log(err)
			return false
		}
		for i := range want {
			if out.I8[i] != want[i] {
				return false
			}
		}

		dev := fcDevice(t, in, w, bias, out)
		copy(dev.Input(0).I8, in.I8)
		got := dev.Output(0).I8
		for i := range got {
			got[i] = sentinel
		}
		if _, err := dev.InvokeBatch(rows); err != nil {
			t.Log(err)
			return false
		}
		for i := range got {
			if i < rows*units && got[i] != want[i] || i >= rows*units && got[i] != sentinel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
