package edgetpu

import (
	"fmt"
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

// checkFC runs the problem through the array and through a delegated FC on
// a device invoked on the first rows rows, and compares both with the naive
// oracle; device rows past the prefix must never be written.
func checkFC(t *testing.T, in, w, bias, out *tensor.Tensor, rows int) error {
	t.Helper()
	const sentinel = int8(0x55)
	want := naiveFC(t, in, w, bias, out)
	if _, err := (Array{Rows: 16, Cols: 16}).RunFullyConnected(in, w, bias, out); err != nil {
		return err
	}
	for i := range want {
		if out.I8[i] != want[i] {
			return fmt.Errorf("array: elem %d = %d, oracle %d", i, out.I8[i], want[i])
		}
	}
	dev := fcDevice(t, in, w, bias, out)
	copy(dev.Input(0).I8, in.I8)
	got := dev.Output(0).I8
	for i := range got {
		got[i] = sentinel
	}
	if _, err := dev.InvokeBatch(rows); err != nil {
		return err
	}
	units := w.Shape[0]
	for i := range got {
		if i < rows*units && got[i] != want[i] || i >= rows*units && got[i] != sentinel {
			return fmt.Errorf("device rows=%d: elem %d = %d, oracle %d", rows, i, got[i], want[i])
		}
	}
	return nil
}

// extremeFC fills a problem with operands drawn from {-128, 127} only and
// sets the input zero point to zp, so every product is ±32,640 or ±32,385.
func extremeFC(r *rng.RNG, batch, depth, units int, zp int32) (in, w, bias, out *tensor.Tensor) {
	in, w, bias, out = randFC(r, batch, depth, units)
	in.Quant.ZeroPoint = zp
	for _, xs := range [][]int8{in.I8, w.I8} {
		for i := range xs {
			xs[i] = int8(127 - 255*r.Intn(2))
		}
	}
	return in, w, bias, out
}

// Property: the array's FC and a delegated FC invoked through the device on
// a random row prefix (non-zero input zero point) both agree with the naive
// oracle; device rows past the prefix are never written. Fixed cases first
// cover the edges of the two-lane kernel: every units%4 tail panel against
// a single row (the int32 pass alone), odd and even batches; all-extreme
// operands; and lane sums at their bound across a depth-chunk boundary.
func TestQuickSystolicMatchesReference(t *testing.T) {
	r := rng.New(31)
	for _, units := range []int{4, 5, 6, 7, 131} { // 131: split across workers
		for _, batch := range []int{1, 3, 4} {
			in, w, bias, out := randFC(r, batch, 37, units)
			if err := checkFC(t, in, w, bias, out, batch); err != nil {
				t.Fatalf("units %d batch %d: %v", units, batch, err)
			}
			if err := checkFC(t, in, w, bias, out, (batch+1)/2); err != nil {
				t.Fatalf("units %d batch %d prefix: %v", units, batch, err)
			}
		}
	}
	for _, zp := range []int32{-128, 127} {
		for _, batch := range []int{1, 2, 5} {
			in, w, bias, out := extremeFC(r, batch, 301, 7, zp)
			if err := checkFC(t, in, w, bias, out, batch); err != nil {
				t.Fatalf("extreme operands zp %d batch %d: %v", zp, batch, err)
			}
		}
	}
	// Lane sums at their bound: every input is the one value x, so each
	// row's sum is depth·(x-zp)·w. Over laneDepth = 65,536 terms a lane
	// reaches ±2,139,095,040, just inside int32; the longer depth crosses a
	// chunk boundary, past which one chunk's lane would overflow, and
	// wraps the int32 accumulator. The bias
	// cancels each unit's sum and the output multiplier is 1, so an error
	// of one in either lane of a pair, or in the odd row, shows in the
	// int8 output.
	for _, depth := range []int{1 << 16, 1<<16 + 1<<10} {
		for _, zp := range []int32{-128, 127} {
			for _, x := range []int8{-128, 127} {
				const batch, units = 3, 6
				in, w, bias, out := extremeFC(r, batch, depth, units, zp)
				for i := range in.I8 {
					in.I8[i] = x
				}
				for u := 0; u < units; u++ {
					c := int8(127 - 255*(u%2))
					sum := int64(0)
					for i := u * depth; i < (u+1)*depth; i++ {
						w.I8[i] = c
						sum += (int64(x) - int64(zp)) * int64(c)
					}
					bias.I32[u] = -int32(sum) + int32(u) - 2
				}
				out.Quant.Scale = in.Quant.Scale * w.Quant.Scale
				out.Quant.ZeroPoint = 0
				if err := checkFC(t, in, w, bias, out, batch); err != nil {
					t.Fatalf("lane bound depth %d zp %d x %d: %v", depth, zp, x, err)
				}
			}
		}
	}

	f := func(seed uint64, b8, d8, u8, r8, e8 uint8) bool {
		batch := int(b8%6) + 1
		depth := int(d8%70) + 1
		units := int(u8%70) + 1
		rows := int(r8)%batch + 1
		r := rng.New(seed)
		in, w, bias, out := randFC(r, batch, depth, units)
		if e8%4 == 0 {
			in, w, bias, out = extremeFC(r, batch, depth, units, int32(127-255*int(e8/4%2)))
		}
		if in.Quant.ZeroPoint == 0 {
			in.Quant.ZeroPoint = 3
		}
		if err := checkFC(t, in, w, bias, out, rows); err != nil {
			t.Logf("batch %d depth %d units %d: %v", batch, depth, units, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
