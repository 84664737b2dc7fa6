package serve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/tensor"
)

func TestParseTenantsTable(t *testing.T) {
	good := []struct {
		spec string
		want []TenantSpec
	}{
		{"free", []TenantSpec{{Name: "free"}}},
		{"prod=w4,p1,q64,d50ms;batch=w1,q16;free", []TenantSpec{
			{Name: "prod", Weight: 4, Priority: 1, Quota: 64, Deadline: 50 * time.Millisecond},
			{Name: "batch", Weight: 1, Quota: 16},
			{Name: "free"},
		}},
		{" a = w2 ; b ", []TenantSpec{{Name: "a", Weight: 2}, {Name: "b"}}},
	}
	for _, tc := range good {
		got, err := ParseTenants(tc.spec)
		if err != nil {
			t.Fatalf("ParseTenants(%q): %v", tc.spec, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseTenants(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}

	bad := []string{
		"", "  ", ";", "a;;b", "a;a", "=w1", "a=", "a=w0", "a=w-1", "a=wx",
		"a=p-1", "a=q-1", "a=d-5ms", "a=dxyz", "a=z9", "a=w1,w2", "a=,",
	}
	for _, spec := range bad {
		if _, err := ParseTenants(spec); err == nil {
			t.Fatalf("ParseTenants(%q) accepted a bad spec", spec)
		} else {
			var te *TenantError
			if !errors.As(err, &te) {
				t.Fatalf("ParseTenants(%q) error %T is not *TenantError", spec, err)
			}
		}
	}
}

func TestParseModelsTable(t *testing.T) {
	got, err := ParseModels("main=d2048;wide=d4096;tiny")
	if err != nil {
		t.Fatal(err)
	}
	want := []ModelSpec{{Name: "main", Dim: 2048}, {Name: "wide", Dim: 4096}, {Name: "tiny"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for _, spec := range []string{"", ";", "a;;b", "a;a", "=d1", "a=", "a=d0", "a=d-1", "a=w4", "a=dx"} {
		if _, err := ParseModels(spec); err == nil {
			t.Fatalf("ParseModels(%q) accepted a bad spec", spec)
		} else {
			var me *ModelError
			if !errors.As(err, &me) {
				t.Fatalf("ParseModels(%q) error %T is not *ModelError", spec, err)
			}
		}
	}
}

// FuzzParseTenants checks the parser never panics and that every accepted
// spec satisfies its own invariants (non-empty unique names, positive
// effective weights, non-negative quotas and deadlines).
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{
		"prod=w4,p1,q64,d50ms;batch=w1,q16;free", "a;b;c", "a=w1", "=", ";;", "a=d1h",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tenants, err := ParseTenants(spec)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, tn := range tenants {
			if tn.Name == "" || seen[tn.Name] {
				t.Fatalf("accepted spec %q with empty/duplicate name: %+v", spec, tenants)
			}
			seen[tn.Name] = true
			if tn.weight() < 1 || tn.Quota < 0 || tn.Deadline < 0 || tn.Priority < 0 {
				t.Fatalf("accepted spec %q with invalid tenant %+v", spec, tn)
			}
		}
		cfg := Config{Tenants: tenants}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("parsed tenants from %q fail Config.Validate: %v", spec, err)
		}
	})
}

// FuzzParseModels mirrors FuzzParseTenants for the model-spec grammar.
func FuzzParseModels(f *testing.F) {
	for _, seed := range []string{"main=d2048;wide=d4096;tiny", "a;b", "a=d1", "=", "a=dx"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		models, err := ParseModels(spec)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, m := range models {
			if m.Name == "" || seen[m.Name] || m.Dim < 0 {
				t.Fatalf("accepted spec %q with invalid model %+v", spec, m)
			}
			seen[m.Name] = true
		}
	})
}

// dummyReq builds an unqueued request for scheduler-level tests.
func dummyReq(model string) *request {
	return &request{ctx: context.Background(), model: model, res: make(chan outcome, 1)}
}

func TestSchedulerWeightedFairShares(t *testing.T) {
	sc := newScheduler([]TenantSpec{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}})
	ta, _ := sc.tenant("a")
	tb, _ := sc.tenant("b")
	for i := 0; i < 12; i++ {
		sc.push(ta, dummyReq(""))
		sc.push(tb, dummyReq(""))
	}
	counts := map[*tenantState]int{}
	for i := 0; i < 8; i++ {
		la, lb := len(ta.q), len(tb.q)
		if r := sc.next(); r == nil {
			t.Fatal("scheduler ran dry")
		}
		switch {
		case len(ta.q) == la-1:
			counts[ta]++
		case len(tb.q) == lb-1:
			counts[tb]++
		default:
			t.Fatal("could not attribute pop")
		}
	}
	if counts[ta] != 6 || counts[tb] != 2 {
		t.Fatalf("w3:w1 shares over 8 pops = %d:%d, want 6:2", counts[ta], counts[tb])
	}
}

func TestSchedulerStrictPriority(t *testing.T) {
	sc := newScheduler([]TenantSpec{{Name: "low"}, {Name: "high", Priority: 1}})
	tl, _ := sc.tenant("low")
	th, _ := sc.tenant("high")
	for i := 0; i < 3; i++ {
		sc.push(tl, dummyReq(""))
		sc.push(th, dummyReq(""))
	}
	// All high-priority requests dispatch before any low-priority one.
	for i := 0; i < 3; i++ {
		sc.next()
		if got := len(th.q); got != 3-i-1 {
			t.Fatalf("pop %d: high queue %d, want %d", i, got, 3-i-1)
		}
		if len(tl.q) != 3 {
			t.Fatalf("pop %d drained the low-priority queue early", i)
		}
	}
}

func TestSchedulerIdleCatchUp(t *testing.T) {
	sc := newScheduler([]TenantSpec{{Name: "a"}, {Name: "b"}})
	ta, _ := sc.tenant("a")
	tb, _ := sc.tenant("b")
	for i := 0; i < 10; i++ {
		sc.push(ta, dummyReq(""))
	}
	for i := 0; i < 5; i++ {
		sc.next()
	}
	// b was idle while a burned virtual time; on wake it must not get 5
	// pops of banked credit — it catches up to a's pass and they alternate.
	sc.push(tb, dummyReq(""))
	sc.push(tb, dummyReq(""))
	if tb.pass != ta.pass {
		t.Fatalf("idle tenant woke with pass %v, active peer at %v", tb.pass, ta.pass)
	}
	order := []int{len(ta.q), len(tb.q)}
	sc.next() // tie → registration order → a
	sc.next() // b
	if len(ta.q) != order[0]-1 || len(tb.q) != order[1]-1 {
		t.Fatalf("post-wake pops not alternating: a %d→%d, b %d→%d",
			order[0], len(ta.q), order[1], len(tb.q))
	}
}

func TestServeTenantQuotaShed(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{
		Policy:  fastPolicy(),
		Tenants: []TenantSpec{{Name: "prod", Quota: 1}, {Name: "batch"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Block the single worker so queued work stays queued.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blockingFill := func(in *tensor.Tensor) {
		once.Do(func() { close(started) })
		<-release
		rowFill(ds, 0)(in)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = s.Submit(context.Background(), Request{Tenant: "prod", Fill: blockingFill})
	}()
	<-started
	go func() {
		defer wg.Done()
		_, _ = s.Submit(context.Background(), Request{Tenant: "prod", Fill: rowFill(ds, 1)})
	}()
	// Wait for the second prod request to be queued (quota 1 reached).
	for {
		s.mu.Lock()
		tp, _ := s.sched.tenant("prod")
		depth := len(tp.q)
		s.mu.Unlock()
		if depth == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}

	_, err = s.Submit(context.Background(), Request{Tenant: "prod", Fill: rowFill(ds, 2)})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Cause != ShedTenantQuota {
		t.Fatalf("over-quota submit got %v, want ShedTenantQuota", err)
	}
	// The other tenant is not affected by prod's quota.
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Tenant: "batch", Fill: rowFill(ds, 3)})
		done <- err
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("batch tenant blocked by prod quota: %v", err)
	}
	wg.Wait()

	rep := s.Report()
	if rep.ShedTenantQuota != 1 || rep.Shed() != 1 {
		t.Fatalf("shed accounting off:\n%s", rep)
	}
	ts, ok := rep.Tenant("prod")
	if !ok || ts.Shed != 1 || ts.Admitted != 2 {
		t.Fatalf("prod tenant stats %+v", ts)
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters[`hdc_tenant_shed_total{tenant="prod"}`] != 1 {
		t.Fatalf("tenant shed counter missing: %v", snap.Counters)
	}
	if snap.Counters[`hdc_serve_shed_total{cause="tenant_quota"}`] != 1 {
		t.Fatalf("serve-level tenant_quota cause missing: %v", snap.Counters)
	}
}

func TestServeUnknownTenantAndModel(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{Policy: fastPolicy(),
		Tenants: []TenantSpec{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ut *UnknownTenantError
	if _, err := s.Submit(context.Background(), Request{Tenant: "nope", Fill: rowFill(ds, 0)}); !errors.As(err, &ut) {
		t.Fatalf("unknown tenant got %v", err)
	}
	var um *UnknownModelError
	if _, err := s.Submit(context.Background(), Request{Tenant: "a", Model: "ghost", Fill: rowFill(ds, 0)}); !errors.As(err, &um) {
		t.Fatalf("model on registry-less server got %v", err)
	}
	rep := s.Report()
	if rep.Submitted != 0 {
		t.Fatalf("caller bugs counted as load:\n%s", rep)
	}
}

func TestServeTenantDeadlineApplies(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{
		Policy:  fastPolicy(),
		Tenants: []TenantSpec{{Name: "slow"}, {Name: "fast", Deadline: 2 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blockingFill := func(in *tensor.Tensor) {
		once.Do(func() { close(started) })
		<-release
		rowFill(ds, 0)(in)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Submit(context.Background(), Request{Tenant: "slow", Fill: blockingFill})
	}()
	<-started
	_, err = s.Submit(context.Background(), Request{Tenant: "fast", Fill: rowFill(ds, 1)})
	close(release)
	wg.Wait()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("tenant deadline did not fire: %v", err)
	}
	rep := s.Report()
	ts, _ := rep.Tenant("fast")
	if ts.DeadlineMissed != 1 {
		t.Fatalf("fast tenant deadline accounting %+v", ts)
	}
}

// serveRegistry registers n compiled variants of the serve model under
// "m0".."m<n-1>", all the same footprint.
func serveRegistry(t *testing.T, p pipeline.Platform, ds *dataset.Dataset, n int) *registry.Registry {
	t.Helper()
	g := registry.New()
	for i := 0; i < n; i++ {
		model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
			Dim: 256, Epochs: 2, LearningRate: 1, Nonlinear: true, Seed: uint64(9 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := pipeline.CompileInference(p, model, ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Register("m"+string(rune('0'+i)), cm, nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// overBudgetModel recompiles cm's int8 graph for an accelerator whose
// parameter memory is half the graph's delegated weights, so the compiler
// marks it non-resident and the device streams its weights on every invoke.
func overBudgetModel(t *testing.T, cm *edgetpu.CompiledModel) (pipeline.Platform, *edgetpu.CompiledModel) {
	t.Helper()
	small := cm.Config
	small.ParamMemBytes = cm.ParamBytes / 2
	big, err := edgetpu.Compile(cm.Model, small)
	if err != nil {
		t.Fatal(err)
	}
	if big.Resident {
		t.Fatalf("model with %d param bytes resident in %d bytes", big.ParamBytes, small.ParamMemBytes)
	}
	p := pipeline.EdgeTPU()
	p.Accel = &small
	return p, big
}

func TestServeRegistrySingleModelBitIdentical(t *testing.T) {
	// A server given a registry holding exactly one (preloaded) model must
	// produce Timing and predictions bit-identical to a server built from
	// the compiled model alone and to a direct runner — the default model
	// pays no re-setup, ever. That includes a model wider than device
	// memory: the device already streams its weights on every invoke, so
	// the registry must not bill a re-setup on top.
	p0, cm0, ds := serveModel(t)
	pBig, cmBig := overBudgetModel(t, cm0)
	for _, tc := range []struct {
		name string
		p    pipeline.Platform
		cm   *edgetpu.CompiledModel
	}{
		{"resident", p0, cm0},
		{"over-budget", pBig, cmBig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, cm := tc.p, tc.cm
			policy := pipeline.DefaultRecoveryPolicy()
			g := registry.New()
			if _, err := g.Register("only", cm, nil); err != nil {
				t.Fatal(err)
			}
			direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := New(p, cm, Config{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer legacy.Close()
			multi, err := New(p, nil, Config{Policy: policy, Registry: g})
			if err != nil {
				t.Fatal(err)
			}
			defer multi.Close()

			for i := 0; i < 12; i++ {
				fill := rowFill(ds, i)
				dt, err := direct.InvokeBatch(0, fill)
				if err != nil {
					t.Fatal(err)
				}
				var lv, mv int32
				lres, err := legacy.Do(context.Background(), fill, func(out *tensor.Tensor) { lv = out.I32[0] })
				if err != nil {
					t.Fatal(err)
				}
				mres, err := multi.Do(context.Background(), fill, func(out *tensor.Tensor) { mv = out.I32[0] })
				if err != nil {
					t.Fatal(err)
				}
				if lres.Timing != mres.Timing {
					t.Fatalf("row %d: registry timing %+v != legacy %+v", i, mres.Timing, lres.Timing)
				}
				if mres.Timing != dt {
					t.Fatalf("row %d: registry timing %+v != direct runner %+v", i, mres.Timing, dt)
				}
				if lv != mv {
					t.Fatalf("row %d: registry prediction %d != legacy %d", i, mv, lv)
				}
				if want := direct.Output(0).I32[0]; mv != want {
					t.Fatalf("row %d: registry prediction %d != direct runner %d", i, mv, want)
				}
				if mres.Swap != 0 {
					t.Fatalf("row %d: preloaded default model billed swap %v", i, mres.Swap)
				}
				if mres.Model != "only" {
					t.Fatalf("row %d: model %q", i, mres.Model)
				}
			}
			evs := multi.RegistryEvents()
			for _, e := range evs {
				if e.Kind != registry.EvHit {
					t.Fatalf("single-model registry serving missed: %v", evs)
				}
			}
		})
	}
}

func TestServeMultiModelDispatchAndSwapBilling(t *testing.T) {
	p, _, ds := serveModel(t)
	g := serveRegistry(t, p, ds, 2)
	e0, _ := g.Get("m0")
	// Budget fits exactly one model: alternating requests must thrash.
	s, err := New(p, nil, Config{
		Policy:   fastPolicy(),
		Registry: g, MemBudget: e0.Footprint, MemPolicy: registry.EvictLRU,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 4; i++ {
		model := "m" + string(rune('0'+i%2))
		res, err := s.Submit(context.Background(), Request{Model: model, Fill: rowFill(ds, i)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Model != model {
			t.Fatalf("request %d served by %q, want %q", i, res.Model, model)
		}
		if i == 0 {
			if res.Swap != 0 {
				t.Fatalf("preloaded first model billed swap %v", res.Swap)
			}
			continue
		}
		e, _ := g.Get(model)
		if res.Swap != e.Setup {
			t.Fatalf("request %d swap %v, want full re-setup %v", i, res.Swap, e.Setup)
		}
		if res.Timing.WeightStream < e.Setup {
			t.Fatalf("request %d swap not billed into WeightStream: %+v", i, res.Timing)
		}
	}
	rep := s.Report()
	m1, ok := rep.Model("m1")
	if !ok || m1.Requests != 2 || m1.Swap <= 0 {
		t.Fatalf("model stats %+v", rep.Models)
	}
	if len(rep.Memory) != 1 || rep.Memory[0].Evictions == 0 {
		t.Fatalf("memory stats %+v", rep.Memory)
	}
}

// TestServeHotSwapInvalidatesBind serves a model before and after a hot
// swap: the post-swap request pays the new version's re-upload, and the
// per-model and reliability counts carry across the rebind.
func TestServeHotSwapInvalidatesBind(t *testing.T) {
	p, cm, ds := serveModel(t)
	g := registry.New()
	if _, err := g.Register("m", cm, nil); err != nil {
		t.Fatal(err)
	}
	s, err := New(p, nil, Config{Policy: fastPolicy(), Registry: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const before, after = 5, 3
	for i := 0; i < before; i++ {
		if _, err := s.Submit(context.Background(), Request{Fill: rowFill(ds, i)}); err != nil {
			t.Fatal(err)
		}
	}
	model2, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
		Dim: 256, Epochs: 1, LearningRate: 1, Nonlinear: true, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm2, err := pipeline.CompileInference(p, model2, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := g.Swap("m", cm2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < after; i++ {
		res, err := s.Submit(context.Background(), Request{Fill: rowFill(ds, i)})
		if err != nil {
			t.Fatal(err)
		}
		want := time.Duration(0) // resident after the first re-upload
		if i == 0 {
			want = e2.Setup
		}
		if res.Swap != want {
			t.Fatalf("post-swap request %d billed %v, want %v", i, res.Swap, want)
		}
	}
	rep := s.Report()
	ms, _ := rep.Model("m")
	if ms.Version != 2 {
		t.Fatalf("report shows version %d after swap", ms.Version)
	}
	if rep.Completed != before+after || ms.Requests != rep.Completed || ms.Invokes != rep.Completed || ms.Swap != e2.Setup {
		t.Fatalf("model counts %+v across the swap, want %d requests and invokes and swap %v (completed %d)",
			ms, before+after, e2.Setup, rep.Completed)
	}
	var invokes int64
	for name, v := range s.Metrics().Snapshot().Counters {
		if strings.HasPrefix(name, "hdc_runner_invokes_total{") {
			invokes += v
		}
	}
	if rep.Reliability.Invokes != int(invokes) || invokes != before+after {
		t.Fatalf("Reliability.Invokes %d, hdc_runner_invokes_total sums to %d, want %d",
			rep.Reliability.Invokes, invokes, before+after)
	}
}

// TestServeEvictionDeterministic drives the same multi-model arrival order
// through two servers and requires identical residency event streams and
// identical re-setup billing. Runs under -race via make tenant-smoke.
func TestServeEvictionDeterministic(t *testing.T) {
	p, _, ds := serveModel(t)
	run := func() ([]registry.Event, []registry.MemStats) {
		g := serveRegistry(t, p, ds, 3)
		e0, _ := g.Get("m0")
		s, err := New(p, nil, Config{
			Policy:   fastPolicy(),
			Registry: g, MemBudget: 2 * e0.Footprint, MemPolicy: registry.EvictLRU,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i, m := range []string{"m0", "m1", "m0", "m2", "m0", "m1"} {
			if _, err := s.Submit(context.Background(), Request{Model: m, Fill: rowFill(ds, i)}); err != nil {
				t.Fatal(err)
			}
		}
		return s.RegistryEvents(), s.Report().Memory
	}
	ev1, st1 := run()
	ev2, st2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event streams diverge:\n%v\n%v", ev1, ev2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("billing diverges: %+v vs %+v", st1, st2)
	}
	if st1[0].Evictions == 0 || st1[0].SwapTime == 0 {
		t.Fatalf("scenario exercised no eviction pressure: %+v", st1)
	}
}

// TestServeTenantSnapshotMonotone hammers a tenanted server from several
// goroutines while snapshotting concurrently: every per-tenant counter must
// be monotone non-decreasing across snapshots, and the books must balance
// at quiescence. Runs under -race via make tenant-smoke.
func TestServeTenantSnapshotMonotone(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{
		Fleet: TPUFleet(2), Policy: fastPolicy(), QueueCapacity: 32,
		Tenants: []TenantSpec{{Name: "a", Weight: 2}, {Name: "b", Quota: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := []string{
		`hdc_tenant_admitted_total{tenant="a"}`,
		`hdc_tenant_completed_total{tenant="a"}`,
		`hdc_tenant_admitted_total{tenant="b"}`,
		`hdc_tenant_shed_total{tenant="b"}`,
		`hdc_tenant_completed_total{tenant="b"}`,
	}
	stop := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		defer close(snapErr)
		last := map[string]int64{}
		for {
			snap := s.Metrics().Snapshot()
			for _, k := range keys {
				if snap.Counters[k] < last[k] {
					snapErr <- errors.New("counter " + k + " went backwards")
					return
				}
				last[k] = snap.Counters[k]
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := "a"
			if g%2 == 1 {
				tenant = "b"
			}
			for i := 0; i < 25; i++ {
				_, _ = s.Submit(context.Background(), Request{Tenant: tenant, Fill: rowFill(ds, i%16)})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	var adm, done, shed int
	for _, ts := range rep.Tenants {
		adm += ts.Admitted
		done += ts.Completed
		shed += ts.Shed
		if ts.Completed > ts.Admitted {
			t.Fatalf("tenant %s completed %d > admitted %d", ts.Name, ts.Completed, ts.Admitted)
		}
	}
	if adm != rep.Admitted || done != rep.Completed || shed != rep.Shed() {
		t.Fatalf("per-tenant books disagree with totals:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "tenant a") {
		t.Fatalf("report does not render tenants:\n%s", rep)
	}
}
