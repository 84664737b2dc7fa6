package serve

import (
	"context"
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

// serveBatchModel is serveModel compiled at the given batch capacity.
func serveBatchModel(t testing.TB, batch int) (pipeline.Platform, *edgetpu.CompiledModel, *dataset.Dataset) {
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
	cm, err := pipeline.CompileInference(p, model, ds, batch)
	if err != nil {
		t.Fatal(err)
	}
	return p, cm, ds
}

func TestServeBatchRejectsOverCapacity(t *testing.T) {
	p, cm, _ := serveBatchModel(t, 4)
	if _, err := New(p, cm, Config{MaxBatch: 8}); err == nil {
		t.Fatal("MaxBatch 8 accepted on a batch-4 model")
	}
	s, err := New(p, cm, Config{MaxBatch: 4})
	if err != nil {
		t.Fatalf("MaxBatch at capacity rejected: %v", err)
	}
	s.Close()
}

func TestServeBatchSingleRowBitIdenticalToDirect(t *testing.T) {
	// A MaxBatch>1 server with a zero window serving one request at a time
	// degenerates to single-row invokes of the batch-capacity model. Timing
	// and predictions must be bit-identical to driving the runner's
	// InvokeBatch(1) directly on the same compiled model.
	p, cm, ds := serveBatchModel(t, 8)
	policy := pipeline.DefaultRecoveryPolicy()
	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, cm, Config{Policy: policy, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 16; i++ {
		fill := rowFill(ds, i)
		dt, err := direct.InvokeBatch(1, fill)
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
			t.Fatalf("row %d: served timing %+v != direct single-row %+v", i, res.Timing, dt)
		}
		if got != want {
			t.Fatalf("row %d: served prediction %d != direct %d", i, got, want)
		}
		if res.BatchSize != 1 {
			t.Fatalf("row %d: sequential request batched %d-wide", i, res.BatchSize)
		}
	}
}

func TestServeBatchDeterministicVsSequential(t *testing.T) {
	// Concurrent requests coalesced into multi-row invokes must produce the
	// same predictions as serving each row alone on the same compiled model.
	p, cm, ds := serveBatchModel(t, 8)
	policy := pipeline.DefaultRecoveryPolicy()
	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	want := make([]int32, n)
	for i := range want {
		if _, err := direct.InvokeBatch(1, rowFill(ds, i)); err != nil {
			t.Fatal(err)
		}
		want[i] = direct.Output(0).I32[0]
	}

	s, err := New(p, cm, Config{
		Policy:   policy,
		MaxBatch: 8, BatchWindow: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	got := make([]int32, n)
	sizes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Do(context.Background(), rowFill(ds, i), func(out *tensor.Tensor) {
				got[i] = out.I32[0]
			})
			if err != nil {
				t.Errorf("row %d: %v", i, err)
				return
			}
			sizes[i] = res.BatchSize
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: batched prediction %d != sequential %d (batch size %d)",
				i, got[i], want[i], sizes[i])
		}
	}
	maxSize := 0
	for _, sz := range sizes {
		if sz > maxSize {
			maxSize = sz
		}
	}
	if maxSize < 2 {
		t.Fatalf("no coalescing happened: batch sizes %v", sizes)
	}
	rep := s.Report()
	if rep.BatchRows != n || rep.MeanOccupancy() <= 1 {
		t.Fatalf("batching accounting off: %d rows over %d invokes", rep.BatchRows, rep.BatchInvokes)
	}
}

func TestServeBatchWindowExpiryWakesWorker(t *testing.T) {
	// A window far shorter than the worker's path from starting the
	// window timer to waiting on it: the timer usually fires first. Each
	// lone request must still dispatch when the window expires, not sit
	// with its worker until the next arrival or its own deadline.
	p, cm, ds := serveBatchModel(t, 4)
	s, err := New(p, cm, Config{Policy: fastPolicy(), MaxBatch: 4, BatchWindow: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		_, err := s.Do(ctx, rowFill(ds, i%ds.Samples()), nil)
		cancel()
		if err != nil {
			t.Fatalf("lone request %d stranded in an expired window: %v", i, err)
		}
	}
}

func TestServeBatchWindowRespectsDeadline(t *testing.T) {
	// A lone request with a deadline far shorter than the batch window must
	// dispatch on the half-slack bound and complete, never waiting out the
	// window into a deadline miss.
	p, cm, ds := serveBatchModel(t, 8)
	s, err := New(p, cm, Config{
		Policy:   fastPolicy(),
		MaxBatch: 8, BatchWindow: 10 * time.Second,
		DefaultDeadline: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	start := time.Now()
	res, err := s.Do(context.Background(), rowFill(ds, 0), nil)
	if err != nil {
		t.Fatalf("lone request missed its deadline under a long window: %v", err)
	}
	if el := time.Since(start); el >= 250*time.Millisecond {
		t.Fatalf("request took %v, at or past its 250ms deadline", el)
	}
	if res.BatchSize != 1 {
		t.Fatalf("lone request reports batch size %d", res.BatchSize)
	}
}

func TestServeBatchConcurrentMixedDeadlines(t *testing.T) {
	// Race-detector coverage of the coalescer: many goroutines with mixed
	// deadlines against few workers, with shedding allowed. Accounting must
	// balance no matter how requests ride batches.
	p, cm, ds := serveBatchModel(t, 8)
	s, err := New(p, cm, Config{
		Fleet: TPUFleet(2), Policy: fastPolicy(),
		QueueCapacity: 16,
		MaxBatch:      8, BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%7)*time.Millisecond)
				defer cancel()
			}
			var sink int32
			_, _ = s.Do(ctx, rowFill(ds, i%ds.Samples()), func(out *tensor.Tensor) {
				sink = out.I32[0]
			})
			_ = sink
		}(i)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after concurrent load: %v", err)
	}
	rep := s.Report()
	if rep.Submitted != n {
		t.Fatalf("submitted %d != %d", rep.Submitted, n)
	}
	if rep.Settled() != n {
		t.Fatalf("settled %d != submitted %d:\n%s", rep.Settled(), n, rep)
	}
	if rep.BatchRows < rep.Completed {
		t.Fatalf("batch rows %d < completed %d", rep.BatchRows, rep.Completed)
	}
}

// TestServeRowViewCacheBounded: every hot swap rebinds the model onto new
// engine tensors, and the worker's row-view cache must let the replaced
// ones go rather than grow by one entry per swap.
func TestServeRowViewCacheBounded(t *testing.T) {
	p, cm, ds := serveBatchModel(t, 4)
	g := registry.New()
	if _, err := g.Register("m", cm, nil); err != nil {
		t.Fatal(err)
	}
	s, err := New(p, nil, Config{Policy: fastPolicy(), Registry: g, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	const swaps = 20
	for i := 0; i < swaps; i++ {
		if _, err := g.Swap("m", cm, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Do(context.Background(), rowFill(ds, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(s.workers[0].rowViews); n > maxRowViewTensors {
		t.Fatalf("row-view cache holds %d tensors after %d swaps, want at most %d", n, swaps, maxRowViewTensors)
	}
}
