package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/tensor"
)

// benchFill fills every occupied row of the batch input from the dataset.
func benchFill(x *tensor.Tensor, rows int) func(in *tensor.Tensor) {
	n := x.Shape[1]
	return func(in *tensor.Tensor) {
		copy(in.F32[:rows*n], x.F32[:rows*n])
	}
}

// BenchmarkInvokeBatch measures one device invoke at increasing occupancy of
// a batch-16 compiled model. b.N invokes; per-sample wall cost is ns/op
// divided by the row count.
func BenchmarkInvokeBatch(b *testing.B) {
	p, cm, ds := serveBatchModel(b, 16)
	r, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, pipeline.DefaultRecoveryPolicy())
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			fill := benchFill(ds.X, rows)
			if _, err := r.InvokeBatch(rows, fill); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.InvokeBatch(rows, fill); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestInvokeBatchSteadyStateAllocs(t *testing.T) {
	// The serving hot path must not allocate per invoke beyond a small
	// fixed overhead: the int8 FC kernel accumulates in registers with no
	// scratch, activation views and LUTs are cached after the first invoke.
	// Pinned to one P so ParallelFor runs inline and the measurement is
	// deterministic.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, cm, ds := serveBatchModel(t, 8)
	r, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, pipeline.DefaultRecoveryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{1, 8} {
		fill := benchFill(ds.X, rows)
		for i := 0; i < 3; i++ { // warm caches and the pool
			if _, err := r.InvokeBatch(rows, fill); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := r.InvokeBatch(rows, fill); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 8 {
			t.Errorf("rows=%d: %v allocs per steady-state invoke, want <= 8", rows, avg)
		}
	}
}

// serveBenchRow is one line of BENCH_serve.json.
type serveBenchRow struct {
	Rows            int     `json:"rows"`
	WallNsPerInvoke int64   `json:"wall_ns_per_invoke"`
	WallNsPerSample int64   `json:"wall_ns_per_sample"`
	SimUsPerSample  float64 `json:"sim_us_per_sample"`
	AllocsPerInvoke int64   `json:"allocs_per_invoke"`
}

// serveFleetBench is the heterogeneous-fleet throughput row of
// BENCH_serve.json: a mixed pool under fixed open-loop load.
type serveFleetBench struct {
	Fleet        string  `json:"fleet"`
	Offered      int     `json:"offered"`
	Completed    int     `json:"completed"`
	TPURequests  int     `json:"tpu_requests"`
	CPURequests  int     `json:"cpu_requests"`
	CompletedRPS float64 `json:"completed_rps"`
	P99Us        int64   `json:"e2e_p99_us"`
}

// measureFleetBench drives a short open-loop burst through a mixed fleet.
func measureFleetBench(t *testing.T, p pipeline.Platform, cm *edgetpu.CompiledModel, ds *dataset.Dataset) serveFleetBench {
	t.Helper()
	fleet, err := ParseFleet("tpu=2,cpu=2")
	if err != nil {
		t.Fatal(err)
	}
	const (
		n       = 200
		service = time.Millisecond
	)
	s, err := New(p, cm, Config{
		Fleet:         fleet,
		QueueCapacity: 8,
		DrainDeadline: 5 * time.Second,
		PacePerInvoke: service,
		PaceScale:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	interarrival := service / time.Duration(2*len(fleet)) // 2x fleet capacity
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interarrival)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Do(context.Background(), benchFill(ds.X, 1), nil) // sheds are expected at 2x
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Failed > 0 {
		t.Fatalf("%d fleet-bench requests failed:\n%s", rep.Failed, rep)
	}
	row := serveFleetBench{
		Fleet:        fleet.String(),
		Offered:      rep.Submitted,
		Completed:    rep.Completed,
		CompletedRPS: float64(rep.Completed) / elapsed.Seconds(),
		P99Us:        rep.Latency.Quantile(0.99).Microseconds(),
	}
	for _, b := range rep.Backends {
		switch b.Name {
		case "tpu":
			row.TPURequests = b.Requests
		case "cpu":
			row.CPURequests = b.Requests
		}
	}
	return row
}

// serveTenantBenchRow is one tenant's share of the weighted-fair bench.
type serveTenantBenchRow struct {
	Tenant       string  `json:"tenant"`
	Weight       int     `json:"weight"`
	Completed    int     `json:"completed"`
	Shed         int     `json:"shed"`
	CompletedRPS float64 `json:"completed_rps"`
	P99Us        int64   `json:"e2e_p99_us"`
}

// serveTenantBench is the multi-tenant throughput section of
// BENCH_serve.json: two tenants of unequal weight saturating a small pool,
// showing the weighted-fair scheduler's completion split.
type serveTenantBench struct {
	Note    string                `json:"note"`
	Tenants []serveTenantBenchRow `json:"tenants"`
}

// measureTenantBench saturates two paced workers with an equal offered
// stream from a weight-3 and a weight-1 tenant; the completion split is
// the scheduler's work.
func measureTenantBench(t *testing.T, p pipeline.Platform, cm *edgetpu.CompiledModel, ds *dataset.Dataset) serveTenantBench {
	t.Helper()
	const (
		n       = 400 // per tenant
		service = time.Millisecond
	)
	tenants := []TenantSpec{
		{Name: "gold", Weight: 3, Quota: 8},
		{Name: "bronze", Weight: 1, Quota: 8},
	}
	s, err := New(p, cm, Config{
		Devices:       2,
		DrainDeadline: 5 * time.Second,
		PacePerInvoke: service,
		Tenants:       tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	interarrival := service / 8 // both tenants together offer 4x capacity
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2*n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interarrival)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := tenants[i%2].Name
			// Quota sheds are the point of the saturation.
			s.Submit(context.Background(), Request{Tenant: tenant, Fill: benchFill(ds.X, 1)})
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Failed > 0 {
		t.Fatalf("%d tenant-bench requests failed:\n%s", rep.Failed, rep)
	}
	bench := serveTenantBench{
		Note: "equal offered load from unequal-weight tenants at 4x capacity; completion split is the WFQ share",
	}
	for _, ts := range rep.Tenants {
		bench.Tenants = append(bench.Tenants, serveTenantBenchRow{
			Tenant:       ts.Name,
			Weight:       ts.Weight,
			Completed:    ts.Completed,
			Shed:         ts.Shed,
			CompletedRPS: float64(ts.Completed) / elapsed.Seconds(),
			P99Us:        ts.Latency.Quantile(0.99).Microseconds(),
		})
	}
	return bench
}

// binhdBenchRow is one engine's cost at the binhd comparison shape.
type binhdBenchRow struct {
	Backend         string  `json:"backend"` // "int8" (interpreter graph) or "bin"
	WallNsPerInvoke int64   `json:"wall_ns_per_invoke"`
	WallNsPerSample int64   `json:"wall_ns_per_sample"`
	SimUsPerSample  float64 `json:"sim_us_per_sample"`
	AllocsPerInvoke int64   `json:"allocs_per_invoke"`
}

// binhdBench is the binary-HDC section of BENCH_serve.json: the int8
// reference path and the bit-packed binhd backend at the same trained
// model and batch, with the headline wall-clock speedup.
type binhdBench struct {
	Note        string          `json:"note"`
	Features    int             `json:"features"`
	Dim         int             `json:"dim"`
	Classes     int             `json:"classes"`
	Capacity    int             `json:"batch_capacity"`
	Rows        []binhdBenchRow `json:"rows"`
	SpeedupWall float64         `json:"speedup_wall"` // int8 wall-ns-per-sample / bin
}

// measureBinHDBench benchmarks full-batch invokes of the int8 graph and
// the binhd backend over one trained model at the comparison shape
// (n=16 features, d=1024, k=26 — where the packed similarity scan
// dominates the int8 class GEMM).
func measureBinHDBench(t *testing.T) binhdBench {
	t.Helper()
	const (
		n, d, k  = 16, 1024, 26
		capacity = 16
	)
	ds, err := dataset.Generate(dataset.SyntheticSpec(n, 256, k, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
		Dim: d, Epochs: 3, LearningRate: 1, Nonlinear: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.EdgeTPU()
	cm, err := pipeline.CompileInference(p, model, ds, capacity)
	if err != nil {
		t.Fatal(err)
	}
	policy := pipeline.DefaultRecoveryPolicy()
	fill := benchFill(ds.X, capacity)

	measure := func(backendName string, invoke func() (time.Duration, error)) binhdBenchRow {
		sim, err := invoke()
		if err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := invoke(); err != nil {
					b.Fatal(err)
				}
			}
		})
		return binhdBenchRow{
			Backend:         backendName,
			WallNsPerInvoke: res.NsPerOp(),
			WallNsPerSample: res.NsPerOp() / capacity,
			SimUsPerSample:  float64(sim) / float64(time.Microsecond) / capacity,
			AllocsPerInvoke: res.AllocsPerOp(),
		}
	}

	int8Runner, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	int8Row := measure("int8", func() (time.Duration, error) {
		tm, err := int8Runner.InvokeBatch(capacity, fill)
		return tm.Total(), err
	})

	bin, err := binhd.New(p.Host, model.Binarize(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	binRunner, err := pipeline.WrapBackends(bin, nil, policy)
	if err != nil {
		t.Fatal(err)
	}
	binRow := measure("bin", func() (time.Duration, error) {
		tm, err := binRunner.InvokeBatch(capacity, fill)
		return tm.Total(), err
	})

	return binhdBench{
		Note:        "int8 graph vs bit-packed binary HDC, full-batch invoke; regenerate with `make bench-binhd`",
		Features:    n,
		Dim:         d,
		Classes:     k,
		Capacity:    capacity,
		Rows:        []binhdBenchRow{int8Row, binRow},
		SpeedupWall: float64(int8Row.WallNsPerSample) / float64(binRow.WallNsPerSample),
	}
}

// TestWriteBinHDBench refreshes only the "binhd" section of the JSON file
// named by BENCH_BINHD_OUT, preserving every other section in place
// (skipped when unset). `make bench-binhd` drives it.
func TestWriteBinHDBench(t *testing.T) {
	out := os.Getenv("BENCH_BINHD_OUT")
	if out == "" {
		t.Skip("BENCH_BINHD_OUT not set; run via `make bench-binhd`")
	}
	doc := map[string]json.RawMessage{}
	if buf, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatalf("existing %s is not a JSON object: %v", out, err)
		}
	}
	section, err := json.Marshal(measureBinHDBench(t))
	if err != nil {
		t.Fatal(err)
	}
	doc["binhd"] = section
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// TestWriteServeBench renders the micro-batching benchmark to the JSON file
// named by BENCH_SERVE_OUT (skipped when unset). `make bench-serve` drives it.
func TestWriteServeBench(t *testing.T) {
	out := os.Getenv("BENCH_SERVE_OUT")
	if out == "" {
		t.Skip("BENCH_SERVE_OUT not set; run via `make bench-serve`")
	}
	p, cm, ds := serveBatchModel(t, 16)
	r, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, pipeline.DefaultRecoveryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var rowsOut []serveBenchRow
	for _, rows := range []int{1, 2, 4, 8, 16} {
		fill := benchFill(ds.X, rows)
		sim, err := r.InvokeBatch(rows, fill)
		if err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.InvokeBatch(rows, fill); err != nil {
					b.Fatal(err)
				}
			}
		})
		rowsOut = append(rowsOut, serveBenchRow{
			Rows:            rows,
			WallNsPerInvoke: res.NsPerOp(),
			WallNsPerSample: res.NsPerOp() / int64(rows),
			SimUsPerSample:  float64(sim.Total()) / float64(time.Microsecond) / float64(rows),
			AllocsPerInvoke: res.AllocsPerOp(),
		})
	}
	doc := struct {
		Note     string           `json:"note"`
		Model    string           `json:"model"`
		Capacity int              `json:"batch_capacity"`
		Rows     []serveBenchRow  `json:"rows"`
		Fleet    serveFleetBench  `json:"fleet"`
		Tenants  serveTenantBench `json:"tenants"`
		BinHD    binhdBench       `json:"binhd"`
	}{
		Note:     "micro-batched invoke cost; regenerate with `make bench-serve`",
		Model:    cm.Model.Name,
		Capacity: cm.BatchCapacity(),
		Rows:     rowsOut,
		Fleet:    measureFleetBench(t, p, cm, ds),
		Tenants:  measureTenantBench(t, p, cm, ds),
		BinHD:    measureBinHDBench(t),
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
