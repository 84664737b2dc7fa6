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

// The micro-batching sweep: what coalescing queued requests into multi-row
// device invokes buys under open-loop load. One invoke's cost is dominated by
// per-invoke overheads (weight streaming, transfer setup, pipeline fill), so
// serving B queued rows in one invoke costs barely more than serving one —
// the per-sample cost divides by the occupancy. The sweep offers the same
// arrival process to servers that differ only in MaxBatch and measures how
// throughput, occupancy, and admitted latency respond as load crosses the
// single-sample capacity. Quality bar: at saturation (4× the batch-1
// capacity) a MaxBatch ≥ 8 server completes at least 2× the requests per
// second of the batch-1 server while its admitted p99 stays inside the
// request deadline.

// BatchingMaxBatches is the coalescing-limit grid.
var BatchingMaxBatches = []int{1, 4, 8, 16}

// BatchingWindows is the batch-window grid for MaxBatch > 1 servers: a zero
// window coalesces only what is already queued, a positive one holds an
// underfull batch open for company. MaxBatch = 1 has nothing to coalesce and
// runs only at zero.
var BatchingWindows = []time.Duration{0, 2 * time.Millisecond}

// BatchingLoads is the offered-load grid, as multiples of the batch-1
// serving capacity.
var BatchingLoads = []float64{1, 2, 4}

// BatchingPoint is one MaxBatch × window × load cell.
type BatchingPoint struct {
	MaxBatch int
	Window   time.Duration
	Load     float64 // offered load as a multiple of batch-1 capacity

	LoadCounts
	BatchInvokes  int
	MeanOccupancy float64
	PerSampleP50  time.Duration // simulated compute per sample row
	ThroughputRPS float64       // completions per wall-clock second
}

// BatchingResult is the full study.
type BatchingResult struct {
	Dataset  string
	Devices  int
	Queue    int
	BasePace time.Duration // paced wall cost of a batch-1 invoke
	Window   time.Duration // batch window for MaxBatch > 1 cells
	Deadline time.Duration

	// BitIdentical records the degenerate-path check: a MaxBatch=8 server
	// with a zero window serving sequential requests matches single-row
	// InvokeBatch calls on the same compiled model for timing and
	// prediction, bit for bit.
	BitIdentical bool

	Points []BatchingPoint
}

// AblationBatching sweeps offered load × MaxBatch over the serving runtime.
func AblationBatching(cfg Config) (*BatchingResult, error) {
	train, _, err := loadSplit("ISOLET", cfg)
	if err != nil {
		return nil, err
	}
	model, _, err := hdc.Train(train, nil, hdc.TrainConfig{
		Dim: cfg.FunctionalDim, Epochs: cfg.Epochs, LearningRate: 1,
		Nonlinear: true, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	p := pipeline.EdgeTPU()
	cms := make(map[int]*edgetpu.CompiledModel, len(BatchingMaxBatches))
	for _, mb := range BatchingMaxBatches {
		cm, err := pipeline.CompileInference(p, model, train, mb)
		if err != nil {
			return nil, fmt.Errorf("experiments: batching compile b=%d: %w", mb, err)
		}
		cms[mb] = cm
	}

	const (
		devices  = 2
		queue    = 64
		basePace = 2 * time.Millisecond
		window   = 2 * time.Millisecond
		deadline = 250 * time.Millisecond
		perCell  = 240
	)
	policy := pipeline.DefaultRecoveryPolicy()
	policy.Seed = cfg.Seed + 1
	res := &BatchingResult{
		Dataset:  "ISOLET",
		Devices:  devices,
		Queue:    queue,
		BasePace: basePace,
		Window:   window,
		Deadline: deadline,
	}

	// PaceScale maps simulated invoke time onto wall-clock worker occupancy
	// so that a batch-1 invoke paces exactly basePace; a coalesced invoke
	// then occupies its worker for its (barely larger) simulated cost and
	// the amortization becomes measurable wall-clock throughput.
	direct1, err := pipeline.NewResilientRunner(p, cms[1], edgetpu.FaultPlan{}, policy)
	if err != nil {
		return nil, err
	}
	t1, err := direct1.InvokeBatch(0, overloadFill(train, 0))
	if err != nil {
		return nil, err
	}
	paceScale := float64(basePace) / float64(t1.Total())

	if res.BitIdentical, err = batchingBitIdentical(p, cms[8], train, policy); err != nil {
		return nil, fmt.Errorf("experiments: batching pass-through: %w", err)
	}

	for _, mb := range BatchingMaxBatches {
		windows := BatchingWindows
		if mb == 1 {
			windows = []time.Duration{0}
		}
		for _, win := range windows {
			for _, load := range BatchingLoads {
				// Above capacity only a fraction of offered requests are
				// admitted; offer proportionally more so tail quantiles rest
				// on real sample counts.
				n := perCell
				if load > 1 {
					n = int(float64(perCell) * load)
				}
				scfg := serve.Config{
					Fleet:           serve.TPUFleet(devices),
					QueueCapacity:   queue,
					DefaultDeadline: deadline,
					DrainDeadline:   10 * time.Second,
					Policy:          policy,
					PaceScale:       paceScale,
					MaxBatch:        mb,
					BatchWindow:     win,
				}
				pt, err := batchingCell(p, cms[mb], train, scfg, basePace, load, n)
				if err != nil {
					return nil, fmt.Errorf("experiments: batching b=%d w=%v %.1fx: %w", mb, win, load, err)
				}
				pt.MaxBatch = mb
				pt.Window = win
				res.Points = append(res.Points, pt)
			}
		}
	}
	return res, nil
}

// batchingBitIdentical checks the zero-window degenerate path: sequential
// requests through a MaxBatch-capable server are single-row invokes of the
// same compiled model, bit-identical in timing and prediction to driving the
// runner's InvokeBatch(1) directly.
func batchingBitIdentical(p pipeline.Platform, cm *edgetpu.CompiledModel,
	ds *dataset.Dataset, policy pipeline.RecoveryPolicy) (bool, error) {
	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		return false, err
	}
	s, err := serve.New(p, cm, serve.Config{
		Policy: policy, MaxBatch: cm.BatchCapacity(),
	})
	if err != nil {
		return false, err
	}
	defer s.Close()
	for i := 0; i < 24; i++ {
		fill := overloadFill(ds, i)
		dt, err := direct.InvokeBatch(1, fill)
		if err != nil {
			return false, err
		}
		want := direct.Output(0).I32[0]
		var got int32
		sr, err := s.Do(context.Background(), fill, func(out *tensor.Tensor) { got = out.I32[0] })
		if err != nil {
			return false, err
		}
		if sr.Timing != dt || got != want || sr.BatchSize != 1 {
			return false, nil
		}
	}
	return true, nil
}

// batchingCell drives one open-loop load cell against a fresh server.
func batchingCell(p pipeline.Platform, cm *edgetpu.CompiledModel, ds *dataset.Dataset,
	scfg serve.Config, basePace time.Duration, load float64, n int) (BatchingPoint, error) {
	s, err := serve.New(p, cm, scfg)
	if err != nil {
		return BatchingPoint{}, err
	}
	// The rate is always relative to batch-1 capacity, so every MaxBatch
	// sees the same arrivals.
	workers := len(scfg.Fleet)
	interarrival := time.Duration(float64(basePace) / (float64(workers) * load))
	at := serve.Staggered(workers, basePace/time.Duration(workers), interarrival)
	elapsed := serve.OpenLoop(n, at, func(i int) {
		// Sheds and deadline misses are expected outcomes; anything else
		// surfaces in the report's Failed count, checked below.
		s.Do(context.Background(), overloadFill(ds, i), nil)
	})
	if err := s.Drain(context.Background()); err != nil {
		return BatchingPoint{}, err
	}
	rep := s.Report()
	if rep.Failed > 0 {
		return BatchingPoint{}, fmt.Errorf("%d requests failed outright", rep.Failed)
	}
	return BatchingPoint{
		Load:          load,
		LoadCounts:    loadCounts(rep),
		BatchInvokes:  rep.BatchInvokes,
		MeanOccupancy: rep.MeanOccupancy(),
		PerSampleP50:  rep.PerSample.Quantile(0.5),
		ThroughputRPS: float64(rep.Completed) / elapsed.Seconds(),
	}, nil
}

// RenderAblationBatching prints the sweep.
func RenderAblationBatching(w io.Writer, res *BatchingResult) {
	t := &metrics.Table{
		Title: fmt.Sprintf(
			"Micro-batching: open-loop serving on %s (%d devices, queue %d, batch-1 pace %v, deadline %v; zero-window pass-through bit-identical: %v)",
			res.Dataset, res.Devices, res.Queue, res.BasePace, res.Deadline,
			res.BitIdentical),
		Headers: []string{"MaxBatch", "Window", "Load", "Offered", "Admitted", "Shed", "Deadline", "Completed", "Invokes", "Occupancy", "Sample-p50", "p50", "p99", "Throughput"},
	}
	for _, pt := range res.Points {
		t.AddRow(
			fmt.Sprintf("%d", pt.MaxBatch),
			metrics.FmtDur(pt.Window),
			fmt.Sprintf("%.1fx", pt.Load),
			fmt.Sprintf("%d", pt.Offered),
			fmt.Sprintf("%d", pt.Admitted),
			fmt.Sprintf("%d", pt.Shed),
			fmt.Sprintf("%d", pt.DeadlineExceeded),
			fmt.Sprintf("%d", pt.Completed),
			fmt.Sprintf("%d", pt.BatchInvokes),
			fmt.Sprintf("%.2f", pt.MeanOccupancy),
			metrics.FmtDur(pt.PerSampleP50),
			metrics.FmtDur(pt.P50),
			metrics.FmtDur(pt.P99),
			fmt.Sprintf("%.0f/s", pt.ThroughputRPS),
		)
	}
	fprintf(w, "%s\n", t)
}
