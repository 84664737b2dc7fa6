package binhd

import (
	"math"
	"runtime"
	"testing"

	"hdcedge/internal/cpuarch"
	"hdcedge/internal/dataset"
	"hdcedge/internal/hdc"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// fixture trains a small bipolar model and a backend over it, plus the
// dataset the inputs come from.
func fixture(t testing.TB, n, d, k, capacity int) (*Backend, *hdc.BipolarModel, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(n, 160, k, 21), 0)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
		Dim: d, Epochs: 2, LearningRate: 1, Nonlinear: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	bm := model.Binarize()
	b, err := New(cpuarch.MobileI5(), bm, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return b, bm, ds
}

// TestMatchesBipolarPredict: the fused packed path must agree with the
// reference BipolarModel.Predict on every row — including odd feature
// counts, non-word-aligned dims, and odd batch occupancy.
func TestMatchesBipolarPredict(t *testing.T) {
	for _, shape := range [][4]int{{16, 256, 3, 8}, {7, 130, 4, 5}, {5, 64, 2, 3}} {
		n, d, k, capacity := shape[0], shape[1], shape[2], shape[3]
		b, bm, ds := fixture(t, n, d, k, capacity)
		for _, rows := range []int{capacity, capacity - 1, 1} {
			if rows < 1 {
				continue
			}
			copy(b.Input(0).F32, ds.X.F32[:capacity*n])
			if _, err := b.InvokeBatch(rows); err != nil {
				t.Fatalf("n%d-d%d rows=%d: %v", n, d, rows, err)
			}
			for r := 0; r < rows; r++ {
				want := bm.Predict(ds.X.F32[r*n : (r+1)*n])
				if got := int(b.Output(0).I32[r]); got != want {
					t.Fatalf("n%d-d%d rows=%d row %d: backend %d, Predict %d", n, d, rows, r, got, want)
				}
			}
		}
	}
}

// TestScoresAreExactAgreement: output 1 must hold the true Hamming
// agreement over d dims (phantom tail-word agreements subtracted), matching
// hdc.HammingAgreement on independently packed vectors.
func TestScoresAreExactAgreement(t *testing.T) {
	n, d, k, capacity := 7, 130, 4, 5
	b, bm, ds := fixture(t, n, d, k, capacity)
	copy(b.Input(0).F32, ds.X.F32[:capacity*n])
	if _, err := b.InvokeBatch(0); err != nil {
		t.Fatal(err)
	}
	enc := make([]float32, d)
	query := make([]uint64, hdc.WordsPerVector(d))
	for r := 0; r < capacity; r++ {
		bm.Encoder.Encode(enc, ds.X.F32[r*n:(r+1)*n])
		hdc.PackSignsInto(query, enc)
		for c := 0; c < k; c++ {
			want := hdc.HammingAgreement(query, bm.Words[c], d)
			if got := int(b.Output(1).I32[r*k+c]); got != want {
				t.Fatalf("row %d class %d: score %d, want agreement %d", r, c, got, want)
			}
			if got := int(b.Output(1).I32[r*k+c]); got < 0 || got > d {
				t.Fatalf("row %d class %d: score %d outside [0, %d]", r, c, got, d)
			}
		}
	}
}

// TestPackedQueryMatchesEncodeSigns: every packed query must equal
// PackSignsInto(Encoder.Encode(x)) word for word, whatever the shape, the
// encoder's nonlinearity, the batch occupancy or a row's place in the
// batch: the backend projects with the kernel Encode runs, so its bits
// match BipolarModel.Predict's by construction. Widths reach past the
// point where Encode splits its columns over workers.
func TestPackedQueryMatchesEncodeSigns(t *testing.T) {
	check := func(b *Backend, in []float32) {
		t.Helper()
		enc := make([]float32, b.d)
		want := make([]uint64, b.words)
		for rows := 0; rows <= b.capacity; rows++ {
			copy(b.Input(0).F32, in)
			if _, err := b.InvokeBatch(rows); err != nil {
				t.Fatal(err)
			}
			occupied := rows
			if occupied == 0 {
				occupied = b.capacity
			}
			for row := 0; row < occupied; row++ {
				b.bm.Encoder.Encode(enc, in[row*b.n:(row+1)*b.n])
				hdc.PackSignsInto(want, enc)
				got := b.packed[row*b.words : (row+1)*b.words]
				for w := range want {
					if got[w] != want[w] {
						t.Fatalf("n%d d%d cap%d rows=%d row %d word %d: packed %#x, sign(Encode) %#x",
							b.n, b.d, b.capacity, rows, row, w, got[w], want[w])
					}
				}
			}
		}
	}

	// A row whose sum's sign hinges on the summation order: feature by
	// feature, 1 + 1e8 rounds back to 1e8 in float32 and the total comes
	// out -0.5 in every dim; adding features 2-5 as one group first gives
	// +0.5.
	const n, d, capacity = 5, 70, 3
	column := [n]float32{1, 1e8, -1e8, 1, -1.5}
	base := tensor.New(tensor.Float32, n, d)
	for i, v := range column {
		for j := 0; j < d; j++ {
			base.F32[i*d+j] = v
		}
	}
	bm := &hdc.BipolarModel{Encoder: &hdc.Encoder{Base: base, Nonlinear: true}, Dim: d,
		Words: [][]uint64{{^uint64(0), 1<<(d-64) - 1}, {0, 0}}}
	b, err := New(cpuarch.MobileI5(), bm, capacity)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float32, capacity*n)
	for i := range ones {
		ones[i] = 1
	}
	check(b, ones)
	if got := b.Output(1).I32[:2]; got[0] != 0 || got[1] != d {
		t.Fatalf("order-sensitive row scores %v, want [0 %d] (sum -0.5 in every dim)", got, d)
	}

	r := rng.New(78)
	for trial := 0; trial < 24; trial++ {
		n := 1 + r.Intn(40)
		d := 1 + r.Intn(2600)
		if trial%6 == 0 {
			d = 64 * (1 + r.Intn(40))
		}
		capacity := 1 + r.Intn(9)
		base := tensor.New(tensor.Float32, n, d)
		r.FillNormal(base.F32)
		words := [][]uint64{make([]uint64, hdc.WordsPerVector(d)), make([]uint64, hdc.WordsPerVector(d))}
		bm := &hdc.BipolarModel{Encoder: &hdc.Encoder{Base: base, Nonlinear: trial%2 == 0}, Dim: d, Words: words}
		b, err := New(cpuarch.MobileI5(), bm, capacity)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]float32, capacity*n)
		r.FillNormal(in)
		for i := range in {
			switch r.Intn(8) {
			case 0:
				in[i] = 0
			case 1:
				in[i] = float32(math.Copysign(0, -1))
			}
		}
		if trial%3 == 0 {
			row := r.Intn(capacity)
			clear(in[row*n : (row+1)*n])
		}
		check(b, in)
	}
}

// TestSteadyStateAllocs: after warm-up, invokes must not allocate — the
// scratch pool and preallocated tensors absorb everything. Pinned to one P
// so pool behavior is deterministic.
func TestSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b, _, ds := fixture(t, 16, 256, 3, 8)
	copy(b.Input(0).F32, ds.X.F32[:8*16])
	for i := 0; i < 3; i++ {
		if _, err := b.InvokeBatch(0); err != nil {
			t.Fatal(err)
		}
		if _, err := b.InvokeBatch(3); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := b.InvokeBatch(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state InvokeBatch(0) allocates %.1f objects per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := b.InvokeBatch(3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state InvokeBatch(3) allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPricing: the simulated cost must decompose into the cpuarch terms,
// scale with occupied rows, and be well under the int8 interpreter path at
// the same shape — the roofline claim the backend exists to make.
func TestPricing(t *testing.T) {
	n, d, k, capacity := 16, 1024, 26, 16
	ds, err := dataset.Generate(dataset.SyntheticSpec(n, 160, k, 21), 0)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
		Dim: d, Epochs: 1, LearningRate: 1, Nonlinear: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	host := cpuarch.MobileI5()
	b, err := New(host, model.Binarize(), capacity)
	if err != nil {
		t.Fatal(err)
	}

	full, err := b.InvokeBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	want := host.GEMMTime(capacity, n, d) +
		host.SignPackTime(capacity*d) +
		host.PopcountGEMMTime(capacity, d, k) +
		host.ArgMaxTime(capacity*k)
	if full.HostFallback != want {
		t.Fatalf("full-batch price %v, want %v", full.HostFallback, want)
	}
	if full.Compute != 0 || full.TransferIn != 0 || full.TransferOut != 0 {
		t.Fatalf("binhd priced accelerator time: %+v", full)
	}

	half, err := b.InvokeBatch(capacity / 2)
	if err != nil {
		t.Fatal(err)
	}
	if half.Total() >= full.Total() {
		t.Fatalf("half batch %v not cheaper than full %v", half.Total(), full.Total())
	}

	// The host-silicon binary path must beat the host int8 interpreter at
	// the same shape: its similarity GEMM runs 64 dims per word op. The
	// int8 path prices encode + tanh LUT + similarity + argmax (see
	// hostcpu); compare against just its two GEMMs to stay conservative.
	int8GEMMs := host.Int8GEMMTime(capacity, n, d) + host.Int8GEMMTime(capacity, d, k)
	if full.Total() >= int8GEMMs {
		t.Fatalf("binhd sim %v not under int8 GEMM floor %v", full.Total(), int8GEMMs)
	}

	// rows >= capacity and rows <= 0 alias the full batch price.
	for _, rows := range []int{0, -3, capacity, capacity + 9} {
		tm, err := b.InvokeBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if tm != full {
			t.Fatalf("InvokeBatch(%d) = %+v, want full-batch %+v", rows, tm, full)
		}
	}
}

// TestNewRejectsBadConfig: constructor validation.
func TestNewRejectsBadConfig(t *testing.T) {
	_, bm, _ := fixture(t, 5, 64, 2, 3)
	if _, err := New(cpuarch.MobileI5(), nil, 4); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := New(cpuarch.MobileI5(), bm, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	short := &hdc.BipolarModel{Encoder: bm.Encoder, Dim: bm.Dim, Words: [][]uint64{{}, {}}}
	if _, err := New(cpuarch.MobileI5(), short, 4); err == nil {
		t.Fatal("truncated class words accepted")
	}
}
