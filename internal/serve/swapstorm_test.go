package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/tensor"
)

// TestServeBindDuringSwapStorm hammers registry.Swap from a trainer-style
// publisher while workers serve and re-bind concurrently: every request
// must succeed, and every answer must be the prediction of one of the two
// published models — a torn bind (a worker seeing half a swap) would
// produce an answer belonging to neither. The report's served version
// must land on the final swap. Runs under -race via make online-smoke.
func TestServeBindDuringSwapStorm(t *testing.T) {
	p, cm1, ds := serveModel(t)
	model2, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
		Dim: 256, Epochs: 2, LearningRate: 1, Nonlinear: true, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm2, err := pipeline.CompileInference(p, model2, ds, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth per model via direct runners: the served answer must
	// always be one of these two, whatever version the worker bound.
	const rows = 24
	expected := make([]map[int32]bool, rows)
	for i := range expected {
		expected[i] = map[int32]bool{}
	}
	for _, cm := range []*edgetpu.CompiledModel{cm1, cm2} {
		direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, fastPolicy())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := direct.InvokeBatch(0, rowFill(ds, i)); err != nil {
				t.Fatal(err)
			}
			expected[i][direct.Output(0).I32[0]] = true
		}
	}

	g := registry.New()
	if _, err := g.Register("m", cm1, nil); err != nil {
		t.Fatal(err)
	}
	s, err := New(p, nil, Config{Fleet: TPUFleet(2), Policy: fastPolicy(), Registry: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const swaps = 60
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the publisher
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= swaps; i++ {
			cm := cm2
			if i%2 == 0 {
				cm = cm1
			}
			e, err := g.Swap("m", cm, nil)
			if err != nil {
				errs <- err
				return
			}
			if e.Version != i+1 {
				errs <- fmt.Errorf("swap %d: version %d", i, e.Version)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i > 0 {
						return
					}
				default:
				}
				row := (w*7 + i) % rows
				var got int32
				if _, err := s.Submit(context.Background(), Request{
					Fill:    rowFill(ds, row),
					Consume: func(out *tensor.Tensor) { got = out.I32[0] },
				}); err != nil {
					errs <- err
					return
				}
				if !expected[row][got] {
					errs <- fmt.Errorf("row %d: prediction %d from neither published model", row, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One more request binds the final version.
	if _, err := s.Submit(context.Background(), Request{Fill: rowFill(ds, 0)}); err != nil {
		t.Fatal(err)
	}
	ms, ok := s.Report().Model("m")
	if !ok || ms.Version != swaps+1 {
		t.Fatalf("served version %d after %d swaps", ms.Version, swaps)
	}
}
