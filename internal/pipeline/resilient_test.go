package pipeline

import (
	"math"
	"testing"
	"time"

	"hdcedge/internal/backend/hostcpu"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// resilientData returns a small split so the fault-path tests stay fast.
func resilientData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test := functionalData(t)
	idx := make([]int, 160)
	for i := range idx {
		idx[i] = i
	}
	tidx := make([]int, 64)
	for i := range tidx {
		tidx[i] = i
	}
	return train.Subset(idx), test.Subset(tidx)
}

// deviceLoop is the reference the one functional loop is checked against:
// it drives a bare edgetpu.Device through ds in batches, padding the final
// partial batch with the last row, and hands each real row's output to
// read.
func deviceLoop(t *testing.T, cm *edgetpu.CompiledModel, ds *dataset.Dataset, batch int, read func(out *tensor.Tensor, i, r int)) edgetpu.Timing {
	t.Helper()
	dev := edgetpu.NewDevice(*EdgeTPU().Accel)
	if _, err := dev.LoadModel(cm); err != nil {
		t.Fatal(err)
	}
	n, s := ds.Features(), ds.Samples()
	var total edgetpu.Timing
	for start := 0; start < s; start += batch {
		in := dev.Input(0)
		for r := 0; r < batch; r++ {
			src := start + r
			if src >= s {
				src = s - 1
			}
			copy(in.F32[r*n:(r+1)*n], ds.X.Row(src))
		}
		timing, err := dev.Invoke()
		if err != nil {
			t.Fatal(err)
		}
		total.Add(timing)
		for r := 0; r < batch && start+r < s; r++ {
			read(dev.Output(0), start+r, r)
		}
	}
	return total
}

func TestResilientZeroPlanBitIdentical(t *testing.T) {
	// A healthy run is the runner under the zero plan, and it must cost
	// exactly what a bare device does: same encodings, same predictions,
	// same timing, no recovery activity. The shapes cover a sample count
	// that is a multiple of the batch, ones that are not, and a batch
	// larger than the whole set, which an encode also calibrates on: one
	// batch padded with its last row.
	train, test := resilientData(t)
	model, _, err := hdc.Train(train, nil, hdc.TrainConfig{Dim: 256, Epochs: 2, LearningRate: 1, Nonlinear: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p := EdgeTPU()
	for _, c := range []struct{ samples, batch int }{{32, 16}, {37, 16}, {7, 4}, {5, 8}} {
		idx := make([]int, c.samples)
		for i := range idx {
			idx[i] = i
		}
		rows := test.Subset(idx)
		batches := (c.samples + c.batch - 1) / c.batch

		cm, err := CompileEncoder(p, model.Encoder, rows, c.batch)
		if err != nil {
			t.Fatal(err)
		}
		d := model.Dim()
		want := tensor.New(tensor.Float32, c.samples, d)
		wantT := deviceLoop(t, cm, rows, c.batch, func(out *tensor.Tensor, i, r int) {
			copy(want.Row(i), out.F32[r*d:(r+1)*d])
		})
		got, gotT, report, err := EncodeOnDeviceResilient(p, model.Encoder, rows, c.batch, edgetpu.FaultPlan{}, DefaultRecoveryPolicy())
		if err != nil {
			t.Fatal(err)
		}
		plain, plainT, err := EncodeOnDevice(p, model.Encoder, rows, c.batch)
		if err != nil {
			t.Fatal(err)
		}
		if gotT != wantT || plainT != wantT {
			t.Fatalf("%+v encode timing: resilient %+v, healthy %+v, bare device %+v", c, gotT, plainT, wantT)
		}
		for i := range want.F32 {
			if got.F32[i] != want.F32[i] || plain.F32[i] != want.F32[i] {
				t.Fatalf("%+v encoding element %d: resilient %v, healthy %v, bare device %v", c, i, got.F32[i], plain.F32[i], want.F32[i])
			}
		}
		if report.Invokes != batches || report.DeviceInvokes != batches || report.Retries != 0 ||
			report.FallbackInvokes != 0 || report.Overhead() != 0 {
			t.Fatalf("%+v healthy encode: want %d invokes and no recovery activity, got %+v", c, batches, report)
		}

		cm, err = CompileInference(p, model, train, c.batch)
		if err != nil {
			t.Fatal(err)
		}
		wantP := make([]int, c.samples)
		wantT = deviceLoop(t, cm, rows, c.batch, func(out *tensor.Tensor, i, r int) {
			wantP[i] = int(out.I32[r])
		})
		preds, predT, report, err := InferOnDeviceResilient(p, model, rows, train, c.batch, edgetpu.FaultPlan{}, DefaultRecoveryPolicy())
		if err != nil {
			t.Fatal(err)
		}
		plainP, plainT, err := InferOnDevice(p, model, rows, train, c.batch)
		if err != nil {
			t.Fatal(err)
		}
		if predT != wantT || plainT != wantT {
			t.Fatalf("%+v infer timing: resilient %+v, healthy %+v, bare device %+v", c, predT, plainT, wantT)
		}
		for i := range wantP {
			if preds[i] != wantP[i] || plainP[i] != wantP[i] {
				t.Fatalf("%+v prediction %d: resilient %d, healthy %d, bare device %d", c, i, preds[i], plainP[i], wantP[i])
			}
		}
		if report.Invokes != batches || report.DeviceInvokes != batches || report.Retries != 0 ||
			report.FallbackInvokes != 0 || report.Overhead() != 0 {
			t.Fatalf("%+v healthy infer: want %d invokes and no recovery activity, got %+v", c, batches, report)
		}
	}
}

func TestResilientDeterministic(t *testing.T) {
	// Same fault plan + policy seeds ⇒ identical fault sequence, identical
	// recovery, identical report, identical outputs.
	train, test := resilientData(t)
	cfg := hdc.TrainConfig{Dim: 512, Epochs: 4, LearningRate: 1, Nonlinear: true, Seed: 9}
	model, _, err := hdc.Train(train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := edgetpu.FaultPlan{Seed: 11, LinkErrorRate: 0.2, ResetRate: 0.05}
	run := func() ([]int, edgetpu.Timing, *ReliabilityReport) {
		preds, timing, report, err := InferOnDeviceResilient(EdgeTPU(), model, test, train, 8, plan, DefaultRecoveryPolicy())
		if err != nil {
			t.Fatal(err)
		}
		return preds, timing, report
	}
	p1, t1, r1 := run()
	p2, t2, r2 := run()
	if *r1 != *r2 {
		t.Fatalf("reports diverged:\n%+v\n%+v", *r1, *r2)
	}
	if t1 != t2 {
		t.Fatalf("timings diverged: %+v vs %+v", t1, t2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("prediction %d diverged: %d vs %d", i, p1[i], p2[i])
		}
	}
	if r1.Retries == 0 && r1.FallbackInvokes == 0 {
		t.Fatalf("plan %+v injected nothing: %+v", plan, r1)
	}
}

func TestResilientAbsorbsLinkAndResetFaults(t *testing.T) {
	// Transient link faults and resets are absorbed exactly: the resilient
	// run produces the same predictions as the healthy run, just slower.
	train, test := resilientData(t)
	cfg := hdc.TrainConfig{Dim: 512, Epochs: 4, LearningRate: 1, Nonlinear: true, Seed: 9}
	model, _, err := hdc.Train(train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthy, healthyT, err := InferOnDevice(EdgeTPU(), model, test, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := edgetpu.FaultPlan{Seed: 3, LinkErrorRate: 0.3, ResetRate: 0.08}
	preds, timing, report, err := InferOnDeviceResilient(EdgeTPU(), model, test, train, 8, plan, DefaultRecoveryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for i := range healthy {
		if preds[i] != healthy[i] {
			t.Fatalf("prediction %d diverged under transient faults: %d vs %d", i, preds[i], healthy[i])
		}
	}
	if report.Retries == 0 {
		t.Fatalf("no retries at link rate 0.3: %+v", report)
	}
	if report.Resets > 0 && report.Reloads == 0 {
		t.Fatalf("resets without reloads: %+v", report)
	}
	if timing.Total() <= healthyT.Total() {
		t.Fatalf("faulty run %v not slower than healthy %v", timing.Total(), healthyT.Total())
	}
	if report.Overhead() <= 0 {
		t.Fatalf("no overhead recorded: %+v", report)
	}
}

func TestResilientBreakerFallsBackToHost(t *testing.T) {
	// A dead link (every transfer fails) exhausts retries on consecutive
	// invokes, trips the breaker, and the run still completes on the host
	// with bit-exact predictions.
	train, test := resilientData(t)
	cfg := hdc.TrainConfig{Dim: 512, Epochs: 4, LearningRate: 1, Nonlinear: true, Seed: 9}
	model, _, err := hdc.Train(train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthy, _, err := InferOnDevice(EdgeTPU(), model, test, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := edgetpu.FaultPlan{Seed: 5, LinkErrorRate: 1}
	preds, timing, report, err := InferOnDeviceResilient(EdgeTPU(), model, test, train, 8, plan, DefaultRecoveryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !report.BreakerTripped {
		t.Fatalf("breaker did not trip on a dead link: %+v", report)
	}
	if report.FallbackInvokes != report.Invokes {
		t.Fatalf("%d of %d invokes fell back; dead link should force all", report.FallbackInvokes, report.Invokes)
	}
	if report.FallbackTime <= 0 || timing.HostFallback <= 0 {
		t.Fatalf("no host fallback time accounted: report %+v timing %+v", report, timing)
	}
	for i := range healthy {
		if preds[i] != healthy[i] {
			t.Fatalf("host-fallback prediction %d diverged: %d vs %d", i, preds[i], healthy[i])
		}
	}
	// Once the breaker trips, later invokes must stop burning device attempts.
	maxAttempts := report.Invokes * (1 + DefaultRecoveryPolicy().MaxRetries)
	if report.DeviceInvokes >= maxAttempts {
		t.Fatalf("breaker did not stop device attempts: %d attempts for %d invokes", report.DeviceInvokes, report.Invokes)
	}
}

func TestResilientSEUCompletesDegraded(t *testing.T) {
	// Heavy SEU rates corrupt resident weights; the run must still complete
	// and stay above chance (graceful, not catastrophic, degradation).
	train, test := resilientData(t)
	cfg := hdc.TrainConfig{Dim: 512, Epochs: 4, LearningRate: 1, Nonlinear: true, Seed: 9}
	model, _, err := hdc.Train(train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := edgetpu.FaultPlan{Seed: 17, BitFlipRate: 1e-5}
	preds, _, _, err := InferOnDeviceResilient(EdgeTPU(), model, test, train, 8, plan, DefaultRecoveryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != test.Samples() {
		t.Fatalf("%d predictions for %d samples", len(preds), test.Samples())
	}
}

func TestRecoveryPolicyValidate(t *testing.T) {
	good := DefaultRecoveryPolicy()
	if err := good.Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	cases := []func(*RecoveryPolicy){
		func(p *RecoveryPolicy) { p.MaxRetries = -1 },
		func(p *RecoveryPolicy) { p.BaseBackoff = 0 },
		func(p *RecoveryPolicy) { p.MaxBackoff = p.BaseBackoff - 1 },
		func(p *RecoveryPolicy) { p.JitterFrac = -0.1 },
		func(p *RecoveryPolicy) { p.JitterFrac = 1.5 },
		func(p *RecoveryPolicy) { p.JitterFrac = math.NaN() },
		func(p *RecoveryPolicy) { p.BreakerThreshold = 0 },
	}
	for i, mutate := range cases {
		p := DefaultRecoveryPolicy()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: invalid policy accepted: %+v", i, p)
		}
	}
}

func TestHostModelTimePricesInferenceModel(t *testing.T) {
	train, _ := resilientData(t)
	cfg := hdc.TrainConfig{Dim: 512, Epochs: 2, LearningRate: 1, Nonlinear: true, Seed: 9}
	model, _, err := hdc.Train(train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := EdgeTPU()
	small, err := CompileInference(p, model, train, 4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := CompileInference(p, model, train, 32)
	if err != nil {
		t.Fatal(err)
	}
	ts := hostcpu.ModelTimeRows(p.Host, small.Model, 0)
	tl := hostcpu.ModelTimeRows(p.Host, large.Model, 0)
	if ts <= 0 {
		t.Fatalf("host pricing %v for a real model", ts)
	}
	if tl <= ts {
		t.Fatalf("8× batch not slower on host: %v vs %v", tl, ts)
	}
}

// FuzzBackoffSchedule checks the backoff schedule can never produce a
// negative or overflowing wait, for any policy that passes Validate.
func FuzzBackoffSchedule(f *testing.F) {
	f.Add(int64(200*time.Microsecond), int64(10*time.Millisecond), 0.2, uint64(1), 5)
	f.Add(int64(1), int64(math.MaxInt64), 1.0, uint64(99), 63)
	f.Add(int64(time.Hour), int64(time.Hour), 0.0, uint64(0), 1000)
	f.Fuzz(func(t *testing.T, base, ceil int64, jitter float64, seed uint64, attempts int) {
		p := RecoveryPolicy{
			MaxRetries:       3,
			BaseBackoff:      time.Duration(base),
			MaxBackoff:       time.Duration(ceil),
			JitterFrac:       jitter,
			BreakerThreshold: 1,
			Seed:             seed,
		}
		if p.Validate() != nil {
			t.Skip()
		}
		if attempts < 0 {
			attempts = -attempts
		}
		attempts = attempts%200 + 1
		r := rng.New(seed)
		ceiling := float64(p.MaxBackoff) * (1 + p.JitterFrac)
		for a := 0; a <= attempts; a++ {
			d := p.backoff(a, r)
			if d < 0 {
				t.Fatalf("attempt %d: negative backoff %v (policy %+v)", a, d, p)
			}
			if float64(d) > ceiling+1 && ceiling < float64(math.MaxInt64) {
				t.Fatalf("attempt %d: backoff %v above ceiling %v (policy %+v)", a, d, time.Duration(ceiling), p)
			}
		}
	})
}
