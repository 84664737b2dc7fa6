package router

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// routerModel trains the same tiny classifier the serve tests use, for
// integration tests over real servers.
func routerModel(t *testing.T) (pipeline.Platform, *edgetpu.CompiledModel, *dataset.Dataset) {
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

func rowFill(ds *dataset.Dataset, i int) func(in *tensor.Tensor) {
	n := ds.Features()
	row := i % ds.Samples()
	return func(in *tensor.Tensor) {
		copy(in.F32, ds.X.F32[row*n:(row+1)*n])
	}
}

func TestRouterSingleNodeBitIdentical(t *testing.T) {
	// A one-node router with hedging off is a pure pass-through: per-invoke
	// simulated timing and predictions must match a directly-driven
	// ResilientRunner bit for bit — the routing tier adds no behavior to
	// the batch-1 path.
	p, cm, ds := routerModel(t)
	policy := pipeline.DefaultRecoveryPolicy()
	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(p, cm, serve.Config{Devices: 1, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New([]serve.Node{s}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const k = 16
	for i := 0; i < k; i++ {
		fill := rowFill(ds, i)
		dt, err := direct.InvokeBatch(0, fill)
		if err != nil {
			t.Fatal(err)
		}
		want := direct.Output(0).I32[0]
		var got int32
		res, err := r.Do(context.Background(), fill, func(out *tensor.Tensor) {
			got = out.I32[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Timing != dt {
			t.Fatalf("row %d: routed timing %+v != direct %+v", i, res.Timing, dt)
		}
		if got != want {
			t.Fatalf("row %d: routed prediction %d != direct %d", i, got, want)
		}
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	rep := r.Report()
	checkInvariant(t, rep)
	if rep.Completed != k || rep.Failovers != 0 || rep.HedgesFired != 0 {
		t.Fatalf("pass-through run report off:\n%s", rep)
	}
	srep, ok := r.NodeServeReport(0)
	if !ok || srep.Completed != k {
		t.Fatalf("node report off: %v %v", ok, srep)
	}
}

func TestRouterFleetFailoverServesThroughCrash(t *testing.T) {
	// Two real nodes, one crashed from the start: every request must land
	// on the survivor with correct predictions, the crash visible only as
	// failovers.
	p, cm, ds := routerModel(t)
	policy := pipeline.DefaultRecoveryPolicy()
	mkNode := func() *serve.Server {
		s, err := serve.New(p, cm, serve.Config{Devices: 1, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dead, err := NewChaosNode(mkNode(), 0, ChaosPlan{Mode: ChaosCrash})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New([]serve.Node{dead, mkNode()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	const k = 12
	for i := 0; i < k; i++ {
		fill := rowFill(ds, i)
		if _, err := direct.InvokeBatch(0, fill); err != nil {
			t.Fatal(err)
		}
		want := direct.Output(0).I32[0]
		var got int32
		if _, err := r.Do(context.Background(), fill, func(out *tensor.Tensor) { got = out.I32[0] }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("row %d: prediction %d != direct %d through failover", i, got, want)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	checkInvariant(t, rep)
	if rep.Completed != k || rep.Failed != 0 || rep.Failovers != k {
		t.Fatalf("crash-failover accounting off:\n%s", rep)
	}
}

func TestRouterDrainRacesChaosHang(t *testing.T) {
	// Satellite: graceful drain racing a node hang. A chaos-hung node
	// strands requests that will never settle on their own; Drain must
	// force-settle them with a typed DrainError and return within the
	// drain bound — a hung worker cannot wedge shutdown.
	p, cm, _ := routerModel(t)
	s, err := serve.New(p, cm, serve.Config{
		Devices:       1,
		Policy:        pipeline.DefaultRecoveryPolicy(),
		DrainDeadline: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hung, err := NewChaosNode(s, 0, ChaosPlan{Mode: ChaosHang})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New([]serve.Node{hung}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	const stuck = 6
	var wg sync.WaitGroup
	errs := make(chan error, stuck)
	for i := 0; i < stuck; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.Do(context.Background(), nil, nil)
			errs <- err
		}()
	}
	// Wait until every request is stranded in the hang.
	deadline := time.Now().Add(2 * time.Second)
	for {
		hung.mu.Lock()
		n := len(hung.hung)
		hung.mu.Unlock()
		if n == stuck {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached the hang", n, stuck)
		}
		time.Sleep(200 * time.Microsecond)
	}

	start := time.Now()
	if err := r.Drain(context.Background()); err != nil {
		t.Fatalf("drain with hung node: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("drain took %v against a hung node (bound 200ms + slack)", elapsed)
	}
	wg.Wait()
	for i := 0; i < stuck; i++ {
		var de *serve.DrainError
		if err := <-errs; !errors.As(err, &de) {
			t.Fatalf("stranded request %d settled with %v, want typed DrainError", i, err)
		}
	}
	rep := r.Report()
	checkInvariant(t, rep)
	if rep.Completed != 0 || rep.Failed != stuck {
		t.Fatalf("hung requests misaccounted:\n%s", rep)
	}
}
