package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"hdcedge/internal/backend"
	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/backend/hostcpu"
	"hdcedge/internal/backend/tpu"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// breakerRunner builds a runner over a tiny encoder model with the given
// plan and policy, for driving the breaker state machine directly.
func breakerRunner(t *testing.T, plan edgetpu.FaultPlan, policy RecoveryPolicy) *ResilientRunner {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(16, 160, 3, 77), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := EdgeTPU()
	enc := hdc.NewEncoder(ds.Features(), 64, true, rng.New(5))
	cm, err := CompileEncoder(p, enc, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResilientRunner(p, cm, plan, policy)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// probePolicy trips after two failed invokes and probes after a
// three-invoke cooldown, with a single retry per invoke.
func probePolicy() RecoveryPolicy {
	p := DefaultRecoveryPolicy()
	p.MaxRetries = 1
	p.BreakerThreshold = 2
	p.BreakerCooldown = 3
	return p
}

func TestBreakerTripProbeClose(t *testing.T) {
	// Dead link: trips the breaker, cooldown passes on the host; the link
	// then heals, so the half-open probe succeeds and closes the breaker.
	r := breakerRunner(t, edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1}, probePolicy())
	invoke := func() {
		t.Helper()
		if _, err := r.InvokeBatch(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Two invokes exhaust retries and trip the breaker.
	invoke()
	if r.BreakerState() != BreakerClosed {
		t.Fatalf("breaker %v after one failed invoke (threshold 2)", r.BreakerState())
	}
	invoke()
	if r.BreakerState() != BreakerOpen {
		t.Fatalf("breaker %v after threshold reached", r.BreakerState())
	}
	// The link heals while the breaker is open.
	if err := r.Device().InjectFaults(edgetpu.FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	// Cooldown: two more host-served invokes leave the breaker open...
	attemptsBefore := r.Report().DeviceInvokes
	invoke()
	invoke()
	if r.BreakerState() != BreakerOpen {
		t.Fatalf("breaker %v during cooldown", r.BreakerState())
	}
	if got := r.Report().DeviceInvokes; got != attemptsBefore {
		t.Fatalf("open breaker burned %d device attempts", got-attemptsBefore)
	}
	// ...and the third half-opens and probes: success closes it.
	invoke()
	rep := r.Report()
	if r.BreakerState() != BreakerClosed {
		t.Fatalf("breaker %v after successful probe", r.BreakerState())
	}
	if rep.BreakerProbes != 1 || rep.BreakerCloses != 1 || rep.BreakerTrips != 1 {
		t.Fatalf("probe accounting off: %+v", rep)
	}
	if rep.DeviceInvokes != attemptsBefore+1 {
		t.Fatalf("probe cost %d device attempts, want 1", rep.DeviceInvokes-attemptsBefore)
	}
	// Closed again: the next invoke runs on the device, not the host.
	fallbackBefore := rep.FallbackInvokes
	invoke()
	if got := r.Report().FallbackInvokes; got != fallbackBefore {
		t.Fatalf("closed breaker still served from host (%d new fallbacks)", got-fallbackBefore)
	}
}

func TestBreakerTripProbeRetrip(t *testing.T) {
	// The link stays dead: the probe's single trial attempt fails and
	// re-opens the breaker for another full cooldown.
	r := breakerRunner(t, edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1}, probePolicy())
	invoke := func() {
		t.Helper()
		if _, err := r.InvokeBatch(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // trip
		invoke()
	}
	for i := 0; i < 2; i++ { // cooldown
		invoke()
	}
	attemptsBefore := r.Report().DeviceInvokes
	invoke() // probe: fails, re-opens
	rep := r.Report()
	if r.BreakerState() != BreakerOpen {
		t.Fatalf("breaker %v after failed probe", r.BreakerState())
	}
	if rep.BreakerProbes != 1 || rep.BreakerCloses != 0 || rep.BreakerTrips != 2 {
		t.Fatalf("re-trip accounting off: %+v", rep)
	}
	if rep.DeviceInvokes != attemptsBefore+1 {
		t.Fatalf("failed probe cost %d attempts, want exactly 1", rep.DeviceInvokes-attemptsBefore)
	}
	if rep.FallbackInvokes != rep.Invokes {
		t.Fatalf("dead link: %d of %d invokes completed on host", rep.FallbackInvokes, rep.Invokes)
	}
	// The next cooldown runs host-only again, then another probe fires.
	for i := 0; i < 2; i++ {
		invoke()
	}
	invoke()
	if got := r.Report().BreakerProbes; got != 2 {
		t.Fatalf("second cooldown did not yield a second probe: %d probes", got)
	}
}

func TestCancelledProbeCountedOnce(t *testing.T) {
	// A half-open probe whose invoke is cancelled after fill never reaches
	// the device: the breaker stays half-open, and the next invoke makes
	// the trial attempt. BreakerProbes counts trial attempts, so the pair
	// is one probe, in the report and in hdc_runner_breaker_probes_total.
	r := breakerRunner(t, edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1}, probePolicy())
	reg := metrics.NewRegistry()
	r.Instrument(reg, `worker="0"`)
	for i := 0; i < 4; i++ { // trip, then the cooldown's first two invokes
		if _, err := r.InvokeBatch(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := r.Report().DeviceInvokes
	if _, err := r.InvokeBatchCtx(ctx, 0, func(*tensor.Tensor) { cancel() }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe returned %v", err)
	}
	if r.BreakerState() != BreakerHalfOpen || r.Report().DeviceInvokes != attempts {
		t.Fatalf("cancelled probe: breaker %v, %d device attempts", r.BreakerState(), r.Report().DeviceInvokes-attempts)
	}
	if _, err := r.InvokeBatch(0, nil); err != nil { // the probe proper: re-trips
		t.Fatal(err)
	}
	rep := r.Report()
	snap := reg.Snapshot()
	probes := snap.Counters[`hdc_runner_breaker_probes_total{worker="0"}`]
	retrips := snap.Counters[`hdc_runner_breaker_probe_outcomes_total{outcome="retrip",worker="0"}`]
	if rep.BreakerProbes != 1 || probes != 1 || retrips != 1 {
		t.Fatalf("report probes %d, series probes %d, re-trips %d; want 1/1/1", rep.BreakerProbes, probes, retrips)
	}
	if r.BreakerState() != BreakerOpen || rep.DeviceInvokes != attempts+1 {
		t.Fatalf("probe: breaker %v, %d device attempts", r.BreakerState(), rep.DeviceInvokes-attempts)
	}
}

func TestBreakerCooldownZeroStaysOpen(t *testing.T) {
	// BreakerCooldown = 0 preserves the legacy permanently-open behavior.
	policy := probePolicy()
	policy.BreakerCooldown = 0
	r := breakerRunner(t, edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1}, policy)
	for i := 0; i < 12; i++ {
		if _, err := r.InvokeBatch(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep := r.Report()
	if r.BreakerState() != BreakerOpen || rep.BreakerProbes != 0 {
		t.Fatalf("zero cooldown probed anyway: state %v, %+v", r.BreakerState(), rep)
	}
}

func TestBreakerRecoversAfterReset(t *testing.T) {
	// Reset-class faults drop the model; a probe after the device heals
	// must re-pay LoadModel and still close the breaker.
	r := breakerRunner(t, edgetpu.FaultPlan{Seed: 9, ResetRate: 1}, probePolicy())
	invoke := func() {
		t.Helper()
		if _, err := r.InvokeBatch(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // trip + part of cooldown
		invoke()
	}
	if err := r.Device().InjectFaults(edgetpu.FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	invoke() // probe
	rep := r.Report()
	if r.BreakerState() != BreakerClosed {
		t.Fatalf("breaker %v after probe on healed device", r.BreakerState())
	}
	if rep.Reloads == 0 {
		t.Fatalf("probe after resets did not reload the model: %+v", rep)
	}
	if rep.BreakerCloses != 1 {
		t.Fatalf("probe accounting off: %+v", rep)
	}
}

func TestInvokeCtxHealthyBitIdentical(t *testing.T) {
	// On a healthy device InvokeBatchCtx must time exactly like InvokeBatch.
	a := breakerRunner(t, edgetpu.FaultPlan{}, DefaultRecoveryPolicy())
	b := breakerRunner(t, edgetpu.FaultPlan{}, DefaultRecoveryPolicy())
	for i := 0; i < 4; i++ {
		ta, err := a.InvokeBatch(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.InvokeBatchCtx(context.Background(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ta != tb {
			t.Fatalf("invoke %d: timing diverged: %+v vs %+v", i, ta, tb)
		}
	}
}

func TestInvokeCtxCancelledBeforeStart(t *testing.T) {
	r := breakerRunner(t, edgetpu.FaultPlan{}, DefaultRecoveryPolicy())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.InvokeBatchCtx(ctx, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx returned %v", err)
	}
}

func TestInvokeCtxDeadlineCancelsBackoffPromptly(t *testing.T) {
	// The policy's backoff is far longer than the request deadline: the
	// invoke must return context.DeadlineExceeded about when the deadline
	// fires, not after sleeping the backoff out.
	policy := DefaultRecoveryPolicy()
	policy.BaseBackoff = 2 * time.Second
	policy.MaxBackoff = 4 * time.Second
	r := breakerRunner(t, edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1}, policy)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.InvokeBatchCtx(ctx, 0, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline mid-backoff returned %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v; backoff was waited out", elapsed)
	}
	// The runner survives a cancelled invoke: clearing the faults lets
	// the next request run normally.
	if err := r.Device().InjectFaults(edgetpu.FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.InvokeBatchCtx(context.Background(), 0, nil); err != nil {
		t.Fatalf("invoke after cancelled predecessor: %v", err)
	}
}

func TestInvokeCtxCancelledMidBackoffReturnsCanceled(t *testing.T) {
	policy := DefaultRecoveryPolicy()
	policy.BaseBackoff = 2 * time.Second
	policy.MaxBackoff = 4 * time.Second
	r := breakerRunner(t, edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1}, policy)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.InvokeBatchCtx(ctx, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel mid-backoff returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v; backoff was waited out", elapsed)
	}
}

// countingBackend counts the invokes that reach the backend it wraps.
type countingBackend struct {
	backend.Backend
	invokes int
}

func (c *countingBackend) InvokeBatch(rows int) (backend.Timing, error) {
	c.invokes++
	return c.Backend.InvokeBatch(rows)
}

// backendClass builds one fresh backend of a class over a shared fixture.
type backendClass struct {
	name  string
	build func(plan edgetpu.FaultPlan) (backend.Backend, error)
}

// backendClasses returns one builder per backend class, all serving the
// same tiny model at the given batch capacity, plus the model's dataset.
// Only the tpu class can fault; the host classes ignore the plan.
func backendClasses(t *testing.T, capacity int) ([]backendClass, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(16, 120, 3, 99), 0)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{Dim: 256, Epochs: 2, LearningRate: 1, Nonlinear: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p := EdgeTPU()
	cm, err := CompileInference(p, model, ds, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return []backendClass{
		{"tpu", func(plan edgetpu.FaultPlan) (backend.Backend, error) { return tpu.New(*p.Accel, cm, plan) }},
		{"cpu", func(edgetpu.FaultPlan) (backend.Backend, error) { return hostcpu.New(p.Host, cm.Model) }},
		{"bin", func(edgetpu.FaultPlan) (backend.Backend, error) { return binhd.New(p.Host, model.Binarize(), capacity) }},
	}, ds
}

// TestInvokeBatchCtxCancelledDispatchesNothing: over a runner wrapping each
// backend class, a cancelled InvokeBatchCtx returns context.Canceled without
// filling the input or dispatching to the backend, and the runner then
// serves a live request exactly like a fresh backend would.
func TestInvokeBatchCtxCancelledDispatchesNothing(t *testing.T) {
	const capacity = 4
	classes, ds := backendClasses(t, capacity)
	n := ds.Features()
	for _, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			b, err := c.build(edgetpu.FaultPlan{})
			if err != nil {
				t.Fatal(err)
			}
			counted := &countingBackend{Backend: b}
			r, err := WrapBackends(counted, nil, DefaultRecoveryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			fills := 0
			fill := func(in *tensor.Tensor) {
				fills++
				copy(in.F32, ds.X.F32[:capacity*n])
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for _, rows := range []int{0, 1, capacity - 1} {
				if _, err := r.InvokeBatchCtx(ctx, rows, fill); !errors.Is(err, context.Canceled) {
					t.Fatalf("rows %d: cancelled InvokeBatchCtx returned %v", rows, err)
				}
			}
			if counted.invokes != 0 || fills != 0 {
				t.Fatalf("cancelled invokes dispatched: %d backend invokes, %d fills", counted.invokes, fills)
			}

			got, err := r.InvokeBatchCtx(context.Background(), 0, fill)
			if err != nil {
				t.Fatalf("invoke after cancellation: %v", err)
			}
			if counted.invokes != 1 {
				t.Fatalf("live invoke dispatched %d backend invokes, want 1", counted.invokes)
			}
			fresh, err := c.build(edgetpu.FaultPlan{})
			if err != nil {
				t.Fatal(err)
			}
			fill(fresh.Input(0))
			want, err := fresh.InvokeBatch(0)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("post-cancel timing %+v != fresh backend %+v", got, want)
			}
			for i, v := range fresh.Output(0).I32 {
				if r.Output(0).I32[i] != v {
					t.Fatalf("post-cancel prediction %d = %d, fresh backend %d", i, r.Output(0).I32[i], v)
				}
			}
		})
	}
}

// TestInstrumentRecordsBackendAttempts: an instrumented runner counts every
// attempt on its primary backend in hdc_backend_invokes_total and records
// each successful attempt's own simulated time, without recovery waste, in
// hdc_backend_invoke_sim_seconds. Host-fallback invokes reach neither. The
// faulted tpu case fails some attempts and falls back for some invokes, so
// the recorded time must be what the caller was billed less the
// reliability report's overhead and fallback time.
func TestInstrumentRecordsBackendAttempts(t *testing.T) {
	const capacity, invokes = 4, 40
	classes, ds := backendClasses(t, capacity)
	n := ds.Features()
	faulted := edgetpu.FaultPlan{LinkErrorRate: 0.6, ResetRate: 0.05, Seed: 3}
	for _, c := range append(classes, backendClass{"tpu-faulted", func(edgetpu.FaultPlan) (backend.Backend, error) {
		return classes[0].build(faulted)
	}}) {
		t.Run(c.name, func(t *testing.T) {
			b, err := c.build(edgetpu.FaultPlan{})
			if err != nil {
				t.Fatal(err)
			}
			host, err := classes[1].build(edgetpu.FaultPlan{})
			if err != nil {
				t.Fatal(err)
			}
			counted := &countingBackend{Backend: b}
			r, err := WrapBackends(counted, host, DefaultRecoveryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			labels := `worker="0",backend="` + c.name + `"`
			r.Instrument(reg, labels)
			var billed time.Duration
			for i := 0; i < invokes; i++ {
				rows := i%capacity + 1
				tm, err := r.InvokeBatch(rows, func(in *tensor.Tensor) {
					copy(in.F32[:rows*n], ds.X.F32[i*n:(i+rows)*n])
				})
				if err != nil {
					t.Fatal(err)
				}
				billed += tm.Total()
			}
			snap := reg.Snapshot()
			rep := r.Report()
			if got := snap.Counters["hdc_backend_invokes_total{"+labels+"}"]; got != int64(counted.invokes) || got != int64(rep.DeviceInvokes) {
				t.Fatalf("hdc_backend_invokes_total = %d, backend saw %d attempts, runner %d", got, counted.invokes, rep.DeviceInvokes)
			}
			h := snap.Histograms["hdc_backend_invoke_sim_seconds{"+labels+"}"]
			if h == nil {
				t.Fatal("hdc_backend_invoke_sim_seconds not registered")
			}
			if want := invokes - rep.FallbackInvokes; h.Count() != want {
				t.Fatalf("sim histogram holds %d attempts, want %d successful ones", h.Count(), want)
			}
			if want := billed - rep.Overhead() - rep.FallbackTime; h.Sum() != want {
				t.Fatalf("sim histogram sums %v, want billed %v less overhead and fallback = %v", h.Sum(), billed, want)
			}
			if c.name == "tpu-faulted" && (rep.Retries == 0 || rep.FallbackInvokes == 0) {
				t.Fatalf("faulted plan exercised no retry or no fallback: %+v", rep)
			}
		})
	}
}
