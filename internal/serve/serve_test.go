package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdcedge/internal/backend/hostcpu"
	"hdcedge/internal/backend/tpu"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// serveModel trains a tiny HDC classifier and compiles single-sample
// inference for the Edge TPU; ds provides rows to serve.
func serveModel(t *testing.T) (pipeline.Platform, *edgetpu.CompiledModel, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(16, 120, 3, 99), 0)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
		Dim: 256, Epochs: 2, LearningRate: 1, Nonlinear: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.EdgeTPU()
	cm, err := pipeline.CompileInference(p, model, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p, cm, ds
}

// rowFill returns a fill function loading row i of ds.
func rowFill(ds *dataset.Dataset, i int) func(in *tensor.Tensor) {
	n := ds.Features()
	return func(in *tensor.Tensor) {
		copy(in.F32, ds.X.F32[i*n:(i+1)*n])
	}
}

// workerSeries names one worker's per-model metric series for a server
// serving cm, e.g. hdc_backend_invokes_total{worker="0",backend="tpu",model="…"}.
// lead, when non-empty, is a metric-specific label placed first.
func workerSeries(metric, lead string, worker int, class string, cm *edgetpu.CompiledModel) string {
	if lead != "" {
		lead += ","
	}
	return fmt.Sprintf("%s{%sworker=%q,backend=%q,model=%q}", metric, lead, fmt.Sprint(worker), class, cm.Model.Name)
}

// fastPolicy keeps wall-clock backoff negligible so fault-path tests run
// quickly even though InvokeBatchCtx really sleeps.
func fastPolicy() pipeline.RecoveryPolicy {
	p := pipeline.DefaultRecoveryPolicy()
	p.BaseBackoff = time.Microsecond
	p.MaxBackoff = 10 * time.Microsecond
	return p
}

func TestServeBitIdenticalToDirectRunner(t *testing.T) {
	// Zero faults, unbounded queue, no deadlines, one device: each Do must
	// report per-invoke timing bit-identical to driving a ResilientRunner
	// directly, and identical predictions.
	p, cm, ds := serveModel(t)
	policy := pipeline.DefaultRecoveryPolicy()
	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, cm, Config{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const k = 16
	for i := 0; i < k; i++ {
		fill := rowFill(ds, i)
		dt, err := direct.InvokeBatch(0, fill)
		if err != nil {
			t.Fatal(err)
		}
		want := direct.Output(0).I32[0]
		var got int32
		res, err := s.Do(context.Background(), fill, func(out *tensor.Tensor) {
			got = out.I32[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Timing != dt {
			t.Fatalf("row %d: served timing %+v != direct %+v", i, res.Timing, dt)
		}
		if got != want {
			t.Fatalf("row %d: served prediction %d != direct %d", i, got, want)
		}
		if res.OnHost || res.Device != 0 {
			t.Fatalf("row %d: unexpected placement %+v", i, res)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	rep := s.Report()
	if rep.Completed != k || rep.Submitted != k || rep.Shed() != 0 ||
		rep.DeadlineExceeded != 0 || rep.Failed != 0 || rep.HostFallback != 0 {
		t.Fatalf("clean run report off:\n%s", rep)
	}
	if rep.Health != Healthy {
		t.Fatalf("healthy run reports %s", rep.Health)
	}
	if rep.Reliability.Retries != 0 || rep.Reliability.FallbackInvokes != 0 {
		t.Fatalf("clean run shows recovery work: %+v", rep.Reliability)
	}
}

func TestServeShedsOnFullQueue(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{QueueCapacity: 1, Policy: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Occupy the single worker: its fill blocks until released.
	var once sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	blockingFill := func(in *tensor.Tensor) {
		once.Do(func() { close(started) })
		<-release
		rowFill(ds, 0)(in)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := s.Do(context.Background(), blockingFill, nil); err != nil {
			t.Errorf("in-flight request: %v", err)
		}
	}()
	<-started
	go func() {
		defer wg.Done()
		if _, err := s.Do(context.Background(), rowFill(ds, 1), nil); err != nil {
			t.Errorf("queued request: %v", err)
		}
	}()
	// Wait until the second request is actually queued (admitted == 2).
	for s.Report().Admitted < 2 {
		time.Sleep(time.Millisecond)
	}
	// Queue is at capacity: the third request must shed with a typed error.
	_, err = s.Do(context.Background(), rowFill(ds, 2), nil)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Cause != ShedQueueFull {
		t.Fatalf("full queue returned %v", err)
	}
	close(release)
	wg.Wait()
	rep := s.Report()
	if rep.ShedQueueFull != 1 || rep.Completed != 2 {
		t.Fatalf("shed accounting off:\n%s", rep)
	}
}

func TestServeDeadlineCancelsMidBackoff(t *testing.T) {
	// A dead link with multi-second backoff: the per-request default
	// deadline must cancel the retry wait, not sleep it out.
	p, cm, ds := serveModel(t)
	policy := pipeline.DefaultRecoveryPolicy()
	policy.BaseBackoff = 2 * time.Second
	policy.MaxBackoff = 4 * time.Second
	s, err := New(p, cm, Config{
		DefaultDeadline: 30 * time.Millisecond,
		Policy:          policy,
		Plan:            edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	_, err = s.Do(context.Background(), rowFill(ds, 0), nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline mid-backoff returned %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v; backoff was waited out", elapsed)
	}
	if rep := s.Report(); rep.DeadlineExceeded != 1 {
		t.Fatalf("deadline accounting off:\n%s", rep)
	}
}

func TestServeCallerDeadlineWinsOverDefault(t *testing.T) {
	// A caller-supplied deadline must not be overridden by DefaultDeadline.
	p, cm, ds := serveModel(t)
	policy := pipeline.DefaultRecoveryPolicy()
	policy.BaseBackoff = 2 * time.Second
	policy.MaxBackoff = 4 * time.Second
	s, err := New(p, cm, Config{
		DefaultDeadline: time.Hour,
		Policy:          policy,
		Plan:            edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.Do(ctx, rowFill(ds, 0), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller deadline returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("caller deadline ignored for %v", elapsed)
	}
}

func TestServeDrainCompletesInFlight(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{DrainDeadline: 5 * time.Second, Policy: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	blockingFill := func(in *tensor.Tensor) {
		once.Do(func() { close(started) })
		<-release
		rowFill(ds, 0)(in)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), blockingFill, nil)
		done <- err
	}()
	<-started
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Admission must refuse once draining. A probe that races in before
	// the drain flag flips gets queued behind the blocked worker, so it
	// carries a short deadline to settle and let the loop retry.
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := s.Do(ctx, rowFill(ds, 1), nil)
		cancel()
		var shed *ShedError
		if errors.As(err, &shed) && shed.Cause == ShedDraining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request during graceful drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("graceful drain returned %v", err)
	}
	rep := s.Report()
	if rep.Completed != 1 || rep.DrainForced != 0 || rep.ShedDraining < 1 {
		t.Fatalf("drain accounting off:\n%s", rep)
	}
}

func TestServeDrainDeadlineForceFails(t *testing.T) {
	// One request stuck retrying a dead link with a 30s backoff, one more
	// sitting in the queue: the drain deadline must force-fail both with
	// typed DrainErrors, and the workers must exit.
	p, cm, ds := serveModel(t)
	policy := pipeline.DefaultRecoveryPolicy()
	policy.MaxRetries = 1000
	policy.BaseBackoff = 30 * time.Second
	policy.MaxBackoff = 60 * time.Second
	policy.BreakerThreshold = 1000
	s, err := New(p, cm, Config{
		DrainDeadline: 50 * time.Millisecond,
		Policy:        policy,
		Plan:          edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	inflight := make(chan error, 1)
	queued := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), rowFill(ds, 0), nil)
		inflight <- err
	}()
	// The first request is in-flight once admitted and dequeued; the
	// second then waits in the queue.
	for s.Report().Admitted < 1 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		_, err := s.Do(context.Background(), rowFill(ds, 1), nil)
		queued <- err
	}()
	for s.Report().Admitted < 2 {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	err = s.Drain(context.Background())
	var de *DrainError
	if !errors.As(err, &de) {
		t.Fatalf("forced drain returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("forced drain took %v; workers did not exit promptly", elapsed)
	}
	for name, ch := range map[string]chan error{"in-flight": inflight, "queued": queued} {
		select {
		case err := <-ch:
			if !errors.As(err, &de) {
				t.Fatalf("%s request settled with %v, want DrainError", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s request never settled", name)
		}
	}
	rep := s.Report()
	if rep.DrainForced != 2 {
		t.Fatalf("force accounting off:\n%s", rep)
	}
}

func TestServeHealthStates(t *testing.T) {
	p, cm, ds := serveModel(t)
	policy := fastPolicy()
	policy.MaxRetries = 1
	policy.BreakerThreshold = 2
	policy.BreakerCooldown = 0 // keep tripped breakers open for a stable read

	// Concurrent bursts with per-invoke pacing keep both workers busy, so
	// every device must serve some of the load (sequential submission would
	// let one idle worker monopolize the queue).
	burst := func(s *Server, rounds int, stop func() bool) {
		t.Helper()
		for i := 0; i < rounds && !stop(); i++ {
			var wg sync.WaitGroup
			for j := 0; j < 4; j++ {
				wg.Add(1)
				go func(row int) {
					defer wg.Done()
					if _, err := s.Do(context.Background(), rowFill(ds, row%ds.Samples()), nil); err != nil {
						t.Errorf("burst request: %v", err)
					}
				}(i*4 + j)
			}
			wg.Wait()
		}
	}

	// One dead device of two → Degraded (work still completes via the
	// dead device's host fallback and the CPU worker, which the fault plan
	// cannot reach).
	s, err := New(p, cm, Config{
		Fleet:         FleetSpec{tpu.Name, hostcpu.Name},
		Policy:        policy,
		PacePerInvoke: time.Millisecond,
		Plan:          edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Health() != Healthy {
		t.Fatalf("fresh server health %s", s.Health())
	}
	burst(s, 50, func() bool { return s.Health() == Degraded })
	if got := s.Health(); got != Degraded {
		t.Fatalf("one dead device of two: health %s", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every device dead → Critical.
	s2, err := New(p, cm, Config{
		Fleet:         TPUFleet(2),
		Policy:        policy,
		PacePerInvoke: time.Millisecond,
		Plan:          edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	burst(s2, 50, func() bool { return s2.Health() == Critical })
	if got := s2.Health(); got != Critical {
		t.Fatalf("all devices dead: health %s", got)
	}
	if rep := s2.Report(); rep.HostFallback == 0 || !rep.Reliability.BreakerTripped {
		t.Fatalf("critical server did not degrade to host:\n%s", rep)
	}
}

func TestServeConcurrentLoadBalances(t *testing.T) {
	// Hammer a four-device server from many goroutines; every submitted
	// request must settle and the counters must balance. Run under -race.
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{Fleet: TPUFleet(4), Policy: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	const requests = 200
	var wg sync.WaitGroup
	var completed atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			for i := 0; i < requests/8; i++ {
				row := int(r.Uint64() % uint64(ds.Samples()))
				_, err := s.Do(context.Background(), rowFill(ds, row), func(out *tensor.Tensor) {
					if len(out.I32) == 0 {
						t.Error("empty output tensor")
					}
				})
				if err != nil {
					t.Errorf("request failed: %v", err)
					continue
				}
				completed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after load: %v", err)
	}
	rep := s.Report()
	if rep.Submitted != requests || rep.Completed != requests || int(completed.Load()) != requests {
		t.Fatalf("load accounting off:\n%s", rep)
	}
	if rep.Settled() != rep.Submitted {
		t.Fatalf("settled %d != submitted %d:\n%s", rep.Settled(), rep.Submitted, rep)
	}
	if rep.Latency.Count() != requests {
		t.Fatalf("latency histogram holds %d of %d", rep.Latency.Count(), requests)
	}
}

func TestServeConfigValidate(t *testing.T) {
	bad := []Config{
		{DefaultDeadline: -time.Second},
		{DrainDeadline: -time.Second},
		{PacePerInvoke: -time.Second},
		{PaceScale: -0.5},
		{MaxBatch: -1},
		{BatchWindow: -time.Millisecond},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

// TestServeReportCountsBeforeDelivery: a request is counted in its worker's
// and its model's Requests before its outcome is delivered, so a Report
// taken right after Submit returns already holds it. One worker serves a
// strictly sequential stream, so after each Submit the per-backend and
// per-model Requests must equal Completed exactly.
func TestServeReportCountsBeforeDelivery(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{Policy: pipeline.DefaultRecoveryPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const k = 1000
	for i := 0; i < k; i++ {
		if _, err := s.Submit(context.Background(), Request{Fill: rowFill(ds, i%ds.Samples())}); err != nil {
			t.Fatal(err)
		}
		rep := s.Report()
		if rep.Completed != i+1 {
			t.Fatalf("submit %d: Completed %d", i, rep.Completed)
		}
		if len(rep.Backends) != 1 || rep.Backends[0].Requests != rep.Completed {
			t.Fatalf("submit %d: backend Requests %+v, Completed %d", i, rep.Backends, rep.Completed)
		}
		if len(rep.Models) != 1 || rep.Models[0].Requests != rep.Completed {
			t.Fatalf("submit %d: model Requests %+v, Completed %d", i, rep.Models, rep.Completed)
		}
	}
}
