package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// The overload sweep: what the serving runtime does as offered load crosses
// capacity, with and without accelerator faults. Offered load is open-loop
// (arrivals do not wait for completions), so beyond capacity the bounded
// admission queue must shed rather than let latency grow without bound. The
// quality bar measured here: at 4× capacity the server sheds (shed > 0)
// while admitted p99 stays within 2× of the unloaded p99 — overload degrades
// availability, not the latency of the work that is admitted.

// OverloadLoads is the offered-load grid, as multiples of server capacity.
var OverloadLoads = []float64{0.5, 1, 2, 4}

// OverloadFaultRates is the link-fault dimension of the sweep.
var OverloadFaultRates = []float64{0, 0.1}

// OverloadPoint is one load × fault cell.
type OverloadPoint struct {
	Load      float64 // offered load as a multiple of capacity
	FaultRate float64

	LoadCounts
	HostFallback int
	GoodputRPS   float64 // completions per wall-clock second
}

// LoadCounts is the admission accounting the open-loop serving sweeps
// report. It is embedded in each sweep's point, so encoding/json writes
// its fields as the point's own keys.
type LoadCounts struct {
	Offered          int
	Admitted         int
	Shed             int
	DeadlineExceeded int
	Completed        int

	P50 time.Duration // admitted (completed) end-to-end latency
	P99 time.Duration
}

// loadCounts reads a cell's admission accounting from its server's report.
func loadCounts(rep serve.ServeReport) LoadCounts {
	return LoadCounts{
		Offered:          rep.Submitted,
		Admitted:         rep.Admitted,
		Shed:             rep.Shed(),
		DeadlineExceeded: rep.DeadlineExceeded,
		Completed:        rep.Completed,
		P50:              rep.Latency.Quantile(0.5),
		P99:              rep.Latency.Quantile(0.99),
	}
}

// OverloadResult is the full study.
type OverloadResult struct {
	Dataset string
	Devices int
	Queue   int
	Service time.Duration // per-invoke pacing (emulated device occupancy)

	// BitIdentical records the pass-through check: with zero faults, an
	// unbounded queue and no deadlines, the server's per-invoke simulated
	// timing and predictions match a directly-driven ResilientRunner.
	BitIdentical bool

	UnloadedP50 time.Duration
	UnloadedP99 time.Duration
	Points      []OverloadPoint
}

// overloadModel trains the tiny classifier served by the sweep.
func overloadModel(cfg Config) (pipeline.Platform, *edgetpu.CompiledModel, *dataset.Dataset, error) {
	train, _, err := loadSplit("ISOLET", cfg)
	if err != nil {
		return pipeline.Platform{}, nil, nil, err
	}
	tc := hdc.TrainConfig{
		Dim: cfg.FunctionalDim, Epochs: cfg.Epochs, LearningRate: 1,
		Nonlinear: true, Seed: cfg.Seed,
	}
	model, _, err := hdc.Train(train, nil, tc)
	if err != nil {
		return pipeline.Platform{}, nil, nil, err
	}
	p := pipeline.EdgeTPU()
	cm, err := pipeline.CompileInference(p, model, train, 1)
	if err != nil {
		return pipeline.Platform{}, nil, nil, err
	}
	return p, cm, train, nil
}

// overloadFill loads row i of ds into the model input.
func overloadFill(ds *dataset.Dataset, i int) func(in *tensor.Tensor) {
	n := ds.Features()
	row := i % ds.Samples()
	return func(in *tensor.Tensor) {
		copy(in.F32, ds.X.F32[row*n:(row+1)*n])
	}
}

// AblationOverload sweeps offered load × fault rate over the serving
// runtime and verifies the zero-load pass-through is bit-identical.
func AblationOverload(cfg Config) (*OverloadResult, error) {
	p, cm, ds, err := overloadModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: overload model: %w", err)
	}
	// A short queue keeps the admitted-latency bound tight: a queued
	// request waits at most one service interval for one of the workers,
	// so admitted p99 stays well inside 2× the unloaded p99 even at 4×
	// offered load — overload sheds instead of stretching latency.
	// perCell is sized so a cell's p99 is a real quantile rather than the
	// sample max: with ~hundreds of admitted requests, a single
	// OS-scheduling straggler cannot define the tail. The service pace is
	// deliberately coarse (8ms) so that OS timer slack and scheduling
	// jitter — milliseconds on a small shared host — stay proportionally
	// small against both sides of the p99 ratio.
	const (
		devices  = 4
		queue    = 1
		service  = 8 * time.Millisecond
		perCell  = 400
		baseline = 128
	)
	policy := pipeline.DefaultRecoveryPolicy()
	policy.Seed = cfg.Seed + 1
	res := &OverloadResult{
		Dataset: "ISOLET",
		Devices: devices,
		Queue:   queue,
		Service: service,
	}

	// Pass-through check: one device, unbounded queue, no deadlines, no
	// pacing — every Do must match a direct ResilientRunner invoke for
	// invoke, timing and prediction.
	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		return nil, err
	}
	ident, err := serve.New(p, cm, serve.Config{Policy: policy})
	if err != nil {
		return nil, err
	}
	res.BitIdentical = true
	for i := 0; i < 32; i++ {
		fill := overloadFill(ds, i)
		dt, err := direct.InvokeBatch(0, fill)
		if err != nil {
			return nil, err
		}
		want := direct.Output(0).I32[0]
		var got int32
		sr, err := ident.Do(context.Background(), fill, func(out *tensor.Tensor) { got = out.I32[0] })
		if err != nil {
			return nil, err
		}
		if sr.Timing != dt || got != want {
			res.BitIdentical = false
			break
		}
	}
	if err := ident.Close(); err != nil {
		return nil, err
	}

	// Unloaded baseline: sequential requests through the paced server, so
	// the only latency is the service time itself.
	base, err := serve.New(p, cm, serve.Config{
		Fleet: serve.TPUFleet(devices), Policy: policy, PacePerInvoke: service,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < baseline; i++ {
		if _, err := base.Do(context.Background(), overloadFill(ds, i), nil); err != nil {
			return nil, fmt.Errorf("experiments: overload baseline: %w", err)
		}
	}
	if err := base.Close(); err != nil {
		return nil, err
	}
	baseRep := base.Report()
	res.UnloadedP50 = baseRep.Latency.Quantile(0.5)
	res.UnloadedP99 = baseRep.Latency.Quantile(0.99)

	for _, fault := range OverloadFaultRates {
		for _, load := range OverloadLoads {
			// Above capacity only ~1/load of offered requests are admitted,
			// so offer proportionally more: the admitted-latency p99 then
			// rests on hundreds of samples in every cell, not just the
			// underloaded ones.
			n := perCell
			if load > 1 {
				n = int(float64(perCell) * load)
			}
			pt, err := overloadCell(p, cm, ds, policy, serve.Config{
				Fleet:           serve.TPUFleet(devices),
				QueueCapacity:   queue,
				DefaultDeadline: 250 * time.Millisecond,
				DrainDeadline:   5 * time.Second,
				PacePerInvoke:   service,
			}, load, fault, n, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: overload %.1fx/%.2f: %w", load, fault, err)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// overloadCell drives one open-loop load cell against a fresh server.
func overloadCell(p pipeline.Platform, cm *edgetpu.CompiledModel, ds *dataset.Dataset,
	policy pipeline.RecoveryPolicy, scfg serve.Config, load, fault float64, n int, seed uint64) (OverloadPoint, error) {
	scfg.Policy = policy
	scfg.Plan = edgetpu.FaultPlan{Seed: seed + uint64(1e3*fault), LinkErrorRate: fault, ResetRate: fault / 10}
	s, err := serve.New(p, cm, scfg)
	if err != nil {
		return OverloadPoint{}, err
	}
	// Capacity is one invoke per worker per service interval; offered load
	// scales the open-loop arrival rate against that.
	workers := len(scfg.Fleet)
	interarrival := time.Duration(float64(scfg.PacePerInvoke) / (float64(workers) * load))
	at := serve.Staggered(workers, scfg.PacePerInvoke/time.Duration(workers), interarrival)
	elapsed := serve.OpenLoop(n, at, func(i int) {
		// Sheds and deadline misses are expected outcomes here; anything
		// else surfaces in the report's Failed count, checked below.
		s.Do(context.Background(), overloadFill(ds, i), nil)
	})
	if err := s.Drain(context.Background()); err != nil {
		return OverloadPoint{}, err
	}
	rep := s.Report()
	if rep.Failed > 0 {
		return OverloadPoint{}, fmt.Errorf("%d requests failed outright", rep.Failed)
	}
	return OverloadPoint{
		Load:         load,
		FaultRate:    fault,
		LoadCounts:   loadCounts(rep),
		HostFallback: rep.HostFallback,
		GoodputRPS:   float64(rep.Completed) / elapsed.Seconds(),
	}, nil
}

// RenderAblationOverload prints the sweep.
func RenderAblationOverload(w io.Writer, res *OverloadResult) {
	t := &metrics.Table{
		Title: fmt.Sprintf(
			"Overload: open-loop serving on %s (%d devices, queue %d, service %v; unloaded p50 %v p99 %v; pass-through bit-identical: %v)",
			res.Dataset, res.Devices, res.Queue, res.Service,
			res.UnloadedP50.Round(time.Microsecond), res.UnloadedP99.Round(time.Microsecond),
			res.BitIdentical),
		Headers: []string{"Load", "Faults", "Offered", "Admitted", "Shed", "Deadline", "Completed", "Host", "p50", "p99", "Goodput"},
	}
	for _, pt := range res.Points {
		t.AddRow(
			fmt.Sprintf("%.1fx", pt.Load),
			fmt.Sprintf("%.2f", pt.FaultRate),
			fmt.Sprintf("%d", pt.Offered),
			fmt.Sprintf("%d", pt.Admitted),
			fmt.Sprintf("%d", pt.Shed),
			fmt.Sprintf("%d", pt.DeadlineExceeded),
			fmt.Sprintf("%d", pt.Completed),
			fmt.Sprintf("%d", pt.HostFallback),
			metrics.FmtDur(pt.P50),
			metrics.FmtDur(pt.P99),
			fmt.Sprintf("%.0f/s", pt.GoodputRPS),
		)
	}
	fprintf(w, "%s\n", t)
}
