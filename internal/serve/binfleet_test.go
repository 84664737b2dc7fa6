package serve

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/backend/tpu"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/tensor"
)

// binServeModel is serveBatchModel keeping the float model, so tests can
// binarize it for bin-class workers.
func binServeModel(t testing.TB, batch int) (pipeline.Platform, *edgetpu.CompiledModel, *hdc.Model, *dataset.Dataset) {
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
	return p, cm, model, ds
}

func TestParseFleetBin(t *testing.T) {
	f, err := ParseFleet("tpu=2,bin=2")
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "tpu=2,bin=2" || len(f) != 4 {
		t.Fatalf("ParseFleet(tpu=2,bin=2) = %v", f)
	}
	if _, err := ParseFleet("bin=2,bin=1"); err == nil {
		t.Fatal("duplicate bin class accepted")
	}
}

func TestBinFleetRequiresBipolar(t *testing.T) {
	cfg := Config{Fleet: FleetSpec{binhd.Name}}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("bin fleet without Bipolar accepted")
	}
	if !strings.Contains(err.Error(), "Bipolar") {
		t.Fatalf("error %v does not name the missing Bipolar model", err)
	}
	cfg.Bipolar = &hdc.BipolarModel{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("bin fleet with Bipolar rejected: %v", err)
	}
}

// TestBinFleetFromRegistry: with a Registry, bin workers serve each entry's
// own bipolar form, so Config.Bipolar may stay nil; an entry without one is
// still refused.
func TestBinFleetFromRegistry(t *testing.T) {
	p, cm, model, ds := binServeModel(t, 1)
	bm := model.Binarize()
	g := registry.New()
	if _, err := g.Register("m", cm, bm); err != nil {
		t.Fatal(err)
	}
	s, err := New(p, nil, Config{Fleet: FleetSpec{binhd.Name}, Registry: g})
	if err != nil {
		t.Fatalf("bin fleet over a registry with bipolar entries rejected: %v", err)
	}
	defer s.Close()
	n := ds.Features()
	var got int32
	res, err := s.Do(context.Background(), rowFill(ds, 0), func(out *tensor.Tensor) { got = out.I32[0] })
	if err != nil {
		t.Fatal(err)
	}
	if want := bm.Predict(ds.X.F32[:n]); res.Backend != binhd.Name || int(got) != want {
		t.Fatalf("served %d on %q, want %d on %q", got, res.Backend, want, binhd.Name)
	}

	bare := registry.New()
	if _, err := bare.Register("m", cm, nil); err != nil {
		t.Fatal(err)
	}
	_, err = New(p, nil, Config{Fleet: FleetSpec{binhd.Name}, Registry: bare})
	if err == nil || !strings.Contains(err.Error(), "bipolar") {
		t.Fatalf("registry entry without a bipolar form: got %v, want a refusal naming it", err)
	}
}

// TestServeMixedBinFleet: a TPU + bin fleet must answer every request from
// the engine that served it — int8-graph answers on the TPU worker,
// bit-packed bipolar answers on the bin worker — attribute completions per
// class, and leave batch-1 TPU timing bit-identical to a direct runner
// (the bin class must not perturb the existing pricing paths).
func TestServeMixedBinFleet(t *testing.T) {
	p, cm, model, ds := binServeModel(t, 1)
	bm := model.Binarize()
	policy := pipeline.DefaultRecoveryPolicy()
	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	directTiming, err := direct.InvokeBatch(0, rowFill(ds, 0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, cm, Config{
		Fleet:         FleetSpec{tpu.Name, binhd.Name},
		Bipolar:       bm,
		Policy:        policy,
		PacePerInvoke: 200 * time.Microsecond, // keep both workers busy
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const k = 40
	n := ds.Features()
	var mu sync.Mutex
	byClass := map[string]int{}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := i % ds.Samples()
			var got int32
			res, err := s.Do(context.Background(), rowFill(ds, row), func(out *tensor.Tensor) {
				got = out.I32[0]
			})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			mu.Lock()
			byClass[res.Backend]++
			mu.Unlock()
			switch res.Backend {
			case binhd.Name:
				if want := bm.Predict(ds.X.F32[row*n : (row+1)*n]); int(got) != want {
					t.Errorf("request %d: bin served %d, bipolar reference %d", i, got, want)
				}
				if res.Timing.HostFallback <= 0 || res.Timing.Compute != 0 || res.Timing.TransferIn != 0 {
					t.Errorf("request %d: bin-served timing off: %+v", i, res.Timing)
				}
			case tpu.Name:
				if res.Timing != directTiming {
					t.Errorf("request %d: TPU timing %+v drifted from direct %+v", i, res.Timing, directTiming)
				}
			}
		}(i)
	}
	wg.Wait()
	if byClass[tpu.Name] == 0 || byClass[binhd.Name] == 0 {
		t.Fatalf("both classes must serve under pacing; split %v", byClass)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Completed != k || rep.Failed != 0 || rep.Health != Healthy {
		t.Fatalf("mixed bin fleet accounting off:\n%s", rep)
	}
	if len(rep.Backends) != 2 {
		t.Fatalf("want 2 backend groups, got %+v", rep.Backends)
	}
	bin, ok := rep.Backend(binhd.Name)
	if !ok || bin.Workers != 1 || bin.Requests != byClass[binhd.Name] ||
		bin.Invokes == 0 || bin.SimTime <= 0 {
		t.Fatalf("bin breakdown off: %+v (split %v)", bin, byClass)
	}
	// Bin workers serve on their primary engine; nothing is a fallback.
	if rep.HostFallback != 0 || bin.Reliability.FallbackInvokes != 0 {
		t.Fatalf("bin serves miscounted as degraded-mode fallback:\n%s", rep)
	}
}

// TestServeBinBatched: bin workers must coalesce queued requests into
// row-prefix batched invokes and still answer each row with the reference
// bipolar prediction.
func TestServeBinBatched(t *testing.T) {
	p, cm, model, ds := binServeModel(t, 4)
	bm := model.Binarize()
	s, err := New(p, cm, Config{
		Fleet:       FleetSpec{binhd.Name},
		Bipolar:     bm,
		MaxBatch:    4,
		BatchWindow: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const k = 24
	n := ds.Features()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := i % ds.Samples()
			var got int32
			_, err := s.Do(context.Background(), rowFill(ds, row), func(out *tensor.Tensor) {
				got = out.I32[0]
			})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if want := bm.Predict(ds.X.F32[row*n : (row+1)*n]); int(got) != want {
				t.Errorf("request %d: batched bin served %d, reference %d", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Completed != k || rep.Failed != 0 {
		t.Fatalf("batched bin fleet accounting off:\n%s", rep)
	}
	if rep.BatchInvokes == 0 || rep.BatchRows != k || rep.MaxBatchRows < 2 {
		t.Fatalf("bin fleet never coalesced (invokes %d, rows %d, max %d)",
			rep.BatchInvokes, rep.BatchRows, rep.MaxBatchRows)
	}
}

// TestServeBinOnlyFleetNeedsNoAccel: a pure-bin fleet must serve on a
// platform without an accelerator.
func TestServeBinOnlyFleetNeedsNoAccel(t *testing.T) {
	_, cm, model, ds := binServeModel(t, 1)
	bm := model.Binarize()
	p := pipeline.CPUBaseline()
	s, err := New(p, cm, Config{Fleet: FleetSpec{binhd.Name}, Bipolar: bm})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := ds.Features()
	for i := 0; i < 8; i++ {
		var got int32
		res, err := s.Do(context.Background(), rowFill(ds, i), func(out *tensor.Tensor) {
			got = out.I32[0]
		})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Backend != binhd.Name || res.OnHost {
			t.Fatalf("request %d placement off: %+v", i, res)
		}
		if want := bm.Predict(ds.X.F32[i*n : (i+1)*n]); int(got) != want {
			t.Fatalf("request %d: served %d, reference %d", i, got, want)
		}
	}
	if rep := s.Report(); rep.Completed != 8 || rep.Health != Healthy {
		t.Fatalf("bin-only fleet report off:\n%s", rep)
	}
}
