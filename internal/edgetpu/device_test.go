package edgetpu

import (
	"testing"
	"time"

	"hdcedge/internal/rng"
	"hdcedge/internal/tflite"
)

func loadedDevice(t *testing.T, batch, n, d, k int) (*Device, *CompiledModel, *tflite.Model) {
	t.Helper()
	m := buildFloatNet(batch, n, d, k, 42)
	qm := quantizeNet(t, m, batch, n, 43)
	cm, err := Compile(qm, DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(DefaultUSB())
	if _, err := dev.LoadModel(cm); err != nil {
		t.Fatal(err)
	}
	return dev, cm, qm
}

func TestDeviceInvokeMatchesInterpreter(t *testing.T) {
	batch, n, d, k := 3, 20, 96, 5
	dev, _, qm := loadedDevice(t, batch, n, d, k)

	ref, err := tflite.NewInterpreter(qm)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	in := make([]float32, batch*n)
	r.FillNormal(in)
	copy(dev.Input(0).F32, in)
	copy(ref.Input(0).F32, in)
	if _, err := dev.Invoke(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Invoke(); err != nil {
		t.Fatal(err)
	}
	// Output 0: argmax predictions must be identical.
	for i := range ref.Output(0).I32 {
		if dev.Output(0).I32[i] != ref.Output(0).I32[i] {
			t.Fatalf("prediction %d: device %d, reference %d", i, dev.Output(0).I32[i], ref.Output(0).I32[i])
		}
	}
	// Output 1: dequantized scores must be bit-identical (same int8 path).
	for i := range ref.Output(1).F32 {
		if dev.Output(1).F32[i] != ref.Output(1).F32[i] {
			t.Fatalf("score %d: device %v, reference %v", i, dev.Output(1).F32[i], ref.Output(1).F32[i])
		}
	}
}

func TestDeviceInvokeWithoutModel(t *testing.T) {
	dev := NewDevice(DefaultUSB())
	if _, err := dev.Invoke(); err == nil {
		t.Fatal("invoke without model succeeded")
	}
}

func TestDeviceLoadRejectsConfigMismatch(t *testing.T) {
	m := buildFloatNet(1, 8, 32, 2, 1)
	qm := quantizeNet(t, m, 1, 8, 2)
	other := DefaultUSB()
	other.Name = "other"
	other.ClockHz = 1e9
	cm, err := Compile(qm, other)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(DefaultUSB())
	if _, err := dev.LoadModel(cm); err == nil {
		t.Fatal("mismatched compile target accepted")
	}
}

func TestDeviceTimingPhases(t *testing.T) {
	dev, cm, _ := loadedDevice(t, 4, 32, 256, 4)
	timing, err := dev.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	cfg := dev.Config()
	if timing.Host != cfg.InvokeOverhead {
		t.Errorf("Host = %v, want %v", timing.Host, cfg.InvokeOverhead)
	}
	if timing.TransferIn < cfg.LinkLatency {
		t.Errorf("TransferIn %v below link latency", timing.TransferIn)
	}
	if timing.Compute <= 0 || timing.Cycles == 0 {
		t.Errorf("no compute accounted: %+v", timing)
	}
	if timing.WeightStream != 0 {
		t.Errorf("resident model streamed weights: %v", timing.WeightStream)
	}
	if cm.Resident && dev.SetupTime <= 0 {
		t.Error("resident model should pay setup time")
	}
	if timing.MACs == 0 {
		t.Error("MAC count missing")
	}
	if total := timing.Total(); total != timing.Host+timing.TransferIn+timing.Compute+timing.HostFallback+timing.TransferOut {
		t.Errorf("Total() inconsistent: %v", total)
	}
}

// LoadModel prices the model blob from its byte count alone: the setup
// time is the link time of len(Marshal()) plus, for a resident model, the
// parameter upload.
func TestLoadModelSetupPricesBlobAndParams(t *testing.T) {
	for _, paramMem := range []int{DefaultUSB().ParamMemBytes, 1 << 10} {
		cfg := DefaultUSB()
		cfg.ParamMemBytes = paramMem
		cm, err := Compile(quantizeNet(t, buildFloatNet(2, 16, 256, 4, 3), 2, 16, 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev := NewDevice(cfg)
		setup, err := dev.LoadModel(cm)
		if err != nil {
			t.Fatal(err)
		}
		want := cfg.transferTime(len(cm.Model.Marshal()))
		if cm.Resident {
			want += cfg.transferTime(cm.ParamBytes)
		}
		if setup != want || dev.SetupTime != want {
			t.Errorf("resident=%v: setup %v, SetupTime %v, want %v", cm.Resident, setup, dev.SetupTime, want)
		}
	}
}

func TestDeviceStreamingModelPaysWeightTime(t *testing.T) {
	cfg := DefaultUSB()
	cfg.ParamMemBytes = 1 << 10
	m := buildFloatNet(2, 16, 256, 4, 3)
	qm := quantizeNet(t, m, 2, 16, 4)
	cm, err := Compile(qm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(cfg)
	if _, err := dev.LoadModel(cm); err != nil {
		t.Fatal(err)
	}
	timing, err := dev.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if timing.WeightStream <= 0 {
		t.Fatal("streaming model paid no weight-stream time")
	}
	wantMin := time.Duration(float64(cm.ParamBytes) / cfg.LinkBandwidth * float64(time.Second))
	if timing.WeightStream < wantMin {
		t.Fatalf("WeightStream %v below bandwidth bound %v", timing.WeightStream, wantMin)
	}
}

func TestDeviceCPUOnlyModelHasNoTransfers(t *testing.T) {
	m := buildFloatNet(1, 8, 32, 2, 5) // float: nothing delegates
	cm, err := Compile(m, DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(DefaultUSB())
	if _, err := dev.LoadModel(cm); err != nil {
		t.Fatal(err)
	}
	timing, err := dev.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if timing.TransferIn != 0 || timing.TransferOut != 0 || timing.Compute != 0 {
		t.Fatalf("CPU-only model charged accelerator time: %+v", timing)
	}
	if timing.HostFallback <= 0 {
		t.Fatal("CPU ops not priced")
	}
}

func TestDeviceEncodeSpeedupGrowsWithFeatures(t *testing.T) {
	// The architectural mechanism behind Fig 10: per-invoke fixed costs
	// amortize better as the feature count grows, so device time per
	// sample rises sublinearly in n while CPU time rises linearly.
	const batch, d, k = 32, 512, 4
	timeFor := func(n int) time.Duration {
		m := buildFloatNet(batch, n, d, k, uint64(n))
		qm := quantizeNet(t, m, batch, n, uint64(n)+1)
		cm, err := Compile(qm, DefaultUSB())
		if err != nil {
			t.Fatal(err)
		}
		dev := NewDevice(DefaultUSB())
		if _, err := dev.LoadModel(cm); err != nil {
			t.Fatal(err)
		}
		timing, err := dev.Invoke()
		if err != nil {
			t.Fatal(err)
		}
		return timing.Total()
	}
	t20 := timeFor(20)
	t700 := timeFor(700)
	ratio := float64(t700) / float64(t20)
	if ratio > 10 {
		t.Fatalf("device time grew %vx from n=20 to n=700; fixed costs not amortizing", ratio)
	}
	if t700 <= t20 {
		t.Fatalf("more features cannot be cheaper: %v vs %v", t700, t20)
	}
}

func TestTimingAdd(t *testing.T) {
	a := Timing{Host: 1, TransferIn: 2, Compute: 3, Cycles: 10, MACs: 100}
	b := Timing{Host: 10, TransferOut: 5, Cycles: 7, MACs: 1}
	a.Add(b)
	if a.Host != 11 || a.TransferOut != 5 || a.Cycles != 17 || a.MACs != 101 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestConfigTransferTime(t *testing.T) {
	cfg := DefaultUSB()
	if cfg.transferTime(0) != 0 {
		t.Error("zero-byte transfer should be free")
	}
	small := cfg.transferTime(1)
	big := cfg.transferTime(1 << 20)
	if small < cfg.LinkLatency {
		t.Error("transfer below latency floor")
	}
	if big <= small {
		t.Error("transfer time not increasing in bytes")
	}
}
