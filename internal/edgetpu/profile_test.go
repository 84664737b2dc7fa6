package edgetpu

import (
	"strings"
	"testing"
)

func TestInvokeProfiledMatchesInvoke(t *testing.T) {
	// Same inputs through Invoke and InvokeProfiled on two devices must
	// produce identical timing and outputs.
	dev, _, qm := loadedDevice(t, 4, 24, 192, 5)
	dev2, _, _ := loadedDevice(t, 4, 24, 192, 5)
	for i := range dev.Input(0).F32 {
		v := float32(i%13) * 0.1
		dev.Input(0).F32[i] = v
		dev2.Input(0).F32[i] = v
	}
	plain, err := dev.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	profiled, traces, err := dev2.InvokeProfiled()
	if err != nil {
		t.Fatal(err)
	}
	if plain != profiled {
		t.Fatalf("timings differ: %+v vs %+v", plain, profiled)
	}
	if len(traces) != len(qm.Operators) {
		t.Fatalf("%d traces for %d ops", len(traces), len(qm.Operators))
	}
	for i := range dev.Output(0).I32 {
		if dev.Output(0).I32[i] != dev2.Output(0).I32[i] {
			t.Fatal("outputs differ")
		}
	}
	// Trace cycle sum must equal the reported compute cycles.
	var cyc uint64
	for _, tr := range traces {
		cyc += tr.Cycles
	}
	if cyc != profiled.Cycles {
		t.Fatalf("trace cycles %d vs timing %d", cyc, profiled.Cycles)
	}
}

func TestProfilerAggregation(t *testing.T) {
	dev, _, _ := loadedDevice(t, 2, 16, 128, 3)
	prof := dev.AttachProfiler()
	const invokes = 5
	for i := 0; i < invokes; i++ {
		if _, _, err := dev.InvokeProfiled(); err != nil {
			t.Fatal(err)
		}
	}
	if prof.Invocations != invokes {
		t.Fatalf("profiler saw %d invocations", prof.Invocations)
	}
	// FC ops must dominate the cycle budget.
	single, _, _ := loadedDevice(t, 2, 16, 128, 3)
	est, err := single.EstimateInvoke()
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, tr := range prof.Ops {
		total += tr.Cycles
	}
	if total != est.Cycles*invokes {
		t.Fatalf("aggregated cycles %d, want %d", total, est.Cycles*invokes)
	}
	rep := prof.Report(dev.Config())
	for _, want := range []string{"FULLY_CONNECTED", "TPU", "CPU", "MACs", "%"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestProfilerRecordsEveryExecutedInvoke: an attached profiler records
// Invoke, InvokeBatch (full and partial) and InvokeProfiled alike, and no
// estimate; its summed cycles equal the executed invokes' cycles.
func TestProfilerRecordsEveryExecutedInvoke(t *testing.T) {
	dev, cm, _ := loadedDevice(t, 4, 16, 128, 3)
	if !cm.Model.RowSliceable() {
		t.Fatal("fixture model is not row-sliceable")
	}
	prof := dev.AttachProfiler()
	var cycles uint64
	for _, invoke := range []func() (Timing, error){
		dev.Invoke,
		func() (Timing, error) { return dev.InvokeBatch(0) },
		func() (Timing, error) { return dev.InvokeBatch(1) },
		func() (Timing, error) { tm, _, err := dev.InvokeProfiled(); return tm, err },
	} {
		tm, err := invoke()
		if err != nil {
			t.Fatal(err)
		}
		cycles += tm.Cycles
	}
	if _, err := dev.EstimateInvoke(); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.EstimateInvokeBatch(2); err != nil {
		t.Fatal(err)
	}
	if prof.Invocations != 4 {
		t.Fatalf("profiler saw %d invocations, want the 4 executed ones", prof.Invocations)
	}
	var got uint64
	for _, tr := range prof.Ops {
		got += tr.Cycles
	}
	if got != cycles {
		t.Fatalf("profiled cycles %d, executed invokes %d", got, cycles)
	}
}

func TestInvokeProfiledWithoutModel(t *testing.T) {
	dev := NewDevice(DefaultUSB())
	if _, _, err := dev.InvokeProfiled(); err == nil {
		t.Fatal("profiled invoke without model succeeded")
	}
}
