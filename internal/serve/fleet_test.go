package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hdcedge/internal/backend/hostcpu"
	"hdcedge/internal/backend/tpu"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/tensor"
)

func TestParseFleet(t *testing.T) {
	good := []struct {
		spec string
		want string // canonical String() rendering
		n    int
	}{
		{"tpu=2,cpu=2", "tpu=2,cpu=2", 4},
		{"cpu=3", "cpu=3", 3},
		{"tpu", "tpu=1", 1},
		{" tpu = 1 , cpu = 1 ", "tpu=1,cpu=1", 2},
		{"cpu,tpu", "cpu=1,tpu=1", 2},
	}
	for _, tc := range good {
		f, err := ParseFleet(tc.spec)
		if err != nil {
			t.Fatalf("ParseFleet(%q): %v", tc.spec, err)
		}
		if len(f) != tc.n || f.String() != tc.want {
			t.Fatalf("ParseFleet(%q) = %v (%q), want %d workers %q", tc.spec, f, f, tc.n, tc.want)
		}
	}
	bad := []struct {
		name, spec string
		reason     string // substring the typed error must carry
	}{
		{"empty spec", "", "empty spec"},
		{"blank spec", "   ", "empty spec"},
		{"unknown class", "gpu=2", "unknown backend class"},
		{"negative count", "tpu=-1", "at least 1"},
		{"non-integer count", "tpu=x", "not an integer"},
		{"zero count", "tpu=0", "at least 1"},
		{"zero count mixed", "tpu=0,cpu=4", "at least 1"},
		{"lone comma", ",", "empty segment"},
		{"empty middle segment", "tpu=2,,cpu=1", "empty segment"},
		{"trailing comma", "tpu=2,", "empty segment"},
		{"duplicate class", "tpu=2,tpu=1", "duplicate backend class"},
		{"duplicate bare class", "cpu,tpu,cpu", "duplicate backend class"},
	}
	for _, tc := range bad {
		f, err := ParseFleet(tc.spec)
		if err == nil {
			t.Fatalf("%s: ParseFleet(%q) accepted: %v", tc.name, tc.spec, f)
		}
		var fe *FleetError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %v (%T) is not a *FleetError", tc.name, err, err)
		}
		if fe.Spec != tc.spec {
			t.Fatalf("%s: FleetError.Spec = %q, want %q", tc.name, fe.Spec, tc.spec)
		}
		if !strings.Contains(fe.Reason, tc.reason) {
			t.Fatalf("%s: FleetError reason %q does not mention %q", tc.name, fe.Reason, tc.reason)
		}
	}
}

func TestFleetConfigValidate(t *testing.T) {
	bad := []Config{
		{Fleet: FleetSpec{"tpu", "gpu"}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid fleet config accepted: %+v", i, cfg)
		}
	}
	ok := Config{Fleet: FleetSpec{"tpu", "cpu"}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid fleet rejected: %v", err)
	}
}

func TestServeHeterogeneousFleet(t *testing.T) {
	// A 1-TPU + 1-CPU fleet must answer every request with the same
	// prediction as a direct runner — the quantized graph is engine-exact —
	// and attribute each completion to its worker's backend class.
	p, cm, ds := serveModel(t)
	policy := pipeline.DefaultRecoveryPolicy()
	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, cm, Config{
		Fleet:         FleetSpec{tpu.Name, hostcpu.Name},
		Policy:        policy,
		PacePerInvoke: 200 * time.Microsecond, // keep both workers busy
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const k = 40
	want := make([]int32, k)
	for i := 0; i < k; i++ {
		if _, err := direct.InvokeBatch(0, rowFill(ds, i%ds.Samples())); err != nil {
			t.Fatal(err)
		}
		want[i] = direct.Output(0).I32[0]
	}

	var mu sync.Mutex
	got := make([]int32, k)
	byClass := map[string]int{}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Do(context.Background(), rowFill(ds, i%ds.Samples()), func(out *tensor.Tensor) {
				mu.Lock()
				got[i] = out.I32[0]
				mu.Unlock()
			})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			mu.Lock()
			byClass[res.Backend]++
			mu.Unlock()
			if res.Backend == hostcpu.Name {
				if res.Timing.HostFallback <= 0 {
					t.Errorf("request %d: CPU-served result has no HostFallback time: %+v", i, res.Timing)
				}
				if res.Timing.Compute != 0 || res.Timing.TransferIn != 0 {
					t.Errorf("request %d: CPU-served result shows device phases: %+v", i, res.Timing)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: fleet prediction %d != direct %d", i, got[i], want[i])
		}
	}
	if byClass[tpu.Name] == 0 || byClass[hostcpu.Name] == 0 {
		t.Fatalf("both classes must serve under pacing; split %v", byClass)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	rep := s.Report()
	if rep.Completed != k || rep.Failed != 0 {
		t.Fatalf("fleet accounting off:\n%s", rep)
	}
	if rep.Health != Healthy {
		t.Fatalf("healthy mixed fleet reports %s", rep.Health)
	}
	// HostFallback counts degraded-mode serves, not CPU-class workers.
	if rep.HostFallback != 0 {
		t.Fatalf("CPU-class serves miscounted as fallback:\n%s", rep)
	}
	if len(rep.Backends) != 2 {
		t.Fatalf("want 2 backend groups, got %+v", rep.Backends)
	}
	total := 0
	for _, b := range rep.Backends {
		if b.Workers != 1 || b.BreakersClosed != 1 {
			t.Fatalf("backend %s worker/breaker accounting off: %+v", b.Name, b)
		}
		if b.Requests != byClass[b.Name] || b.Latency.Count() != b.Requests {
			t.Fatalf("backend %s request accounting off: %+v vs split %v", b.Name, b, byClass)
		}
		if b.Invokes == 0 || b.SimTime <= 0 || b.Busy <= 0 {
			t.Fatalf("backend %s work accounting off: %+v", b.Name, b)
		}
		total += b.Requests
	}
	if total != rep.Completed {
		t.Fatalf("backend requests %d != completed %d", total, rep.Completed)
	}
	// The CPU worker's interpreter is its *primary* engine: its invokes are
	// primary invokes, never degraded-mode fallbacks.
	cpu, ok := rep.Backend(hostcpu.Name)
	if !ok || cpu.Reliability.Invokes == 0 ||
		cpu.Reliability.DeviceInvokes != cpu.Reliability.Invokes ||
		cpu.Reliability.FallbackInvokes != 0 {
		t.Fatalf("CPU class reliability misattributed: %+v", cpu.Reliability)
	}
}

func TestServeCPUOnlyFleetNeedsNoAccel(t *testing.T) {
	// A pure-CPU fleet must serve on a platform with no accelerator at all.
	_, cm, ds := serveModel(t)
	p := pipeline.CPUBaseline()
	if p.HasAccel() {
		t.Fatal("CPUBaseline grew an accelerator")
	}
	s, err := New(p, cm, Config{Fleet: FleetSpec{hostcpu.Name, hostcpu.Name}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		res, err := s.Do(context.Background(), rowFill(ds, i), nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Backend != hostcpu.Name || res.OnHost {
			t.Fatalf("request %d placement off: %+v", i, res)
		}
	}
	if rep := s.Report(); rep.Completed != 8 || rep.Health != Healthy {
		t.Fatalf("CPU-only fleet report off:\n%s", rep)
	}
}

func TestServeHeterogeneousOverloadAndDrain(t *testing.T) {
	// The overload/drain matrix on a 2-TPU + 2-CPU fleet: a bounded queue
	// under a burst beyond capacity must shed (never fail), honor deadlines,
	// and drain cleanly with every request settled.
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{
		Fleet:           FleetSpec{tpu.Name, tpu.Name, hostcpu.Name, hostcpu.Name},
		QueueCapacity:   4,
		DefaultDeadline: 250 * time.Millisecond,
		DrainDeadline:   2 * time.Second,
		Policy:          fastPolicy(),
		PacePerInvoke:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const burst = 64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Do(context.Background(), rowFill(ds, i%ds.Samples()), nil)
			var shed *ShedError
			if err != nil && !errors.As(err, &shed) && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("request %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after burst: %v", err)
	}
	rep := s.Report()
	if rep.Submitted != burst || rep.Settled() != burst {
		t.Fatalf("settlement off (%d submitted, %d settled):\n%s", rep.Submitted, rep.Settled(), rep)
	}
	if rep.Failed != 0 || rep.DrainForced != 0 {
		t.Fatalf("burst produced hard failures:\n%s", rep)
	}
	if rep.ShedQueueFull == 0 {
		t.Fatalf("a %d-burst over a 4-deep queue on 4 paced workers must shed:\n%s", burst, rep)
	}
	if rep.Completed == 0 {
		t.Fatalf("nothing completed:\n%s", rep)
	}
}
