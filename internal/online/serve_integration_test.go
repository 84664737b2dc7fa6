package online

import (
	"context"
	"sync"
	"testing"

	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// TestServeOnlineSnapshotPickupDuringServing closes the loop end to end:
// a registry-mode server keeps serving while the trainer consumes
// feedback and publishes snapshots; workers must pick the new versions up
// through the ordinary (ID, Version) bind path, with every request
// succeeding. Runs under -race via make online-smoke.
func TestServeOnlineSnapshotPickupDuringServing(t *testing.T) {
	p, g, model, ds := harness(t, 256)
	met := metrics.NewRegistry()
	s, err := serve.New(p, nil, serve.Config{
		Fleet: serve.TPUFleet(2), Policy: pipeline.DefaultRecoveryPolicy(),
		Registry: g, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr, err := New(p, g, &Config{SnapshotEvery: 8, DriftWindow: 16, Buffer: 64}, met)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach("m", model, ds); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	shifted := permuteFeatures(ds, 99)
	n := ds.Features()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for gi := 0; gi < 4; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := gi; i < shifted.Samples(); i += 4 {
				row := shifted.X.F32[i*n : (i+1)*n]
				_, err := s.Submit(context.Background(), serve.Request{
					Fill: func(in *tensor.Tensor) { copy(in.F32, row) },
					Consume: func(out *tensor.Tensor) {
						// The application later learns the truth and feeds
						// it back; Offer never blocks the serving path.
						tr.Offer(Feedback{Features: row, Label: shifted.Y[i]})
					},
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tr.Quiesce()

	st := tr.Stats()
	if st.Snapshots == 0 {
		t.Fatalf("serving feedback published nothing: %+v", st)
	}
	// A fresh request after publication must serve the new version.
	if _, err := s.Submit(context.Background(), serve.Request{
		Fill: func(in *tensor.Tensor) { copy(in.F32, shifted.X.F32[:n]) },
	}); err != nil {
		t.Fatal(err)
	}
	ms, ok := s.Report().Model("m")
	if !ok {
		t.Fatal("model missing from report")
	}
	if int64(ms.Version) != st.Snapshots+1 {
		t.Fatalf("served version %d after %d snapshots", ms.Version, st.Snapshots)
	}
	// Online telemetry and serving telemetry share one registry, so the
	// /snapshot surface carries both.
	snap := met.Snapshot()
	if snap.Counters["hdc_online_snapshots_total"] != st.Snapshots {
		t.Fatalf("shared metrics registry missed online counters: %+v", snap.Counters)
	}
}

// TestServeNilTrainerBitIdentical is the regression bar for the "online
// learning off" configuration: wiring a nil trainer through the serving
// callbacks must leave timings and predictions bit-identical to a server
// with no online code in sight.
func TestServeNilTrainerBitIdentical(t *testing.T) {
	policy := pipeline.DefaultRecoveryPolicy()
	// harness is fully seeded, so two calls build identical models and
	// registries; one server runs bare, the other with the nil trainer
	// wired through its Consume callbacks.
	p1, g1, _, ds := harness(t, 256)
	plain, err := serve.New(p1, nil, serve.Config{Policy: policy, Registry: g1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	p2, g2, _, _ := harness(t, 256)
	wired, err := serve.New(p2, nil, serve.Config{Policy: policy, Registry: g2})
	if err != nil {
		t.Fatal(err)
	}
	defer wired.Close()
	tr, err := New(p2, g2, nil, nil) // nil config: online learning off
	if err != nil {
		t.Fatal(err)
	}

	n := ds.Features()
	for i := 0; i < 16; i++ {
		row := ds.X.F32[i*n : (i+1)*n]
		fill := func(in *tensor.Tensor) { copy(in.F32, row) }
		var pv, wv int32
		pres, err := plain.Submit(context.Background(), serve.Request{
			Fill:    fill,
			Consume: func(out *tensor.Tensor) { pv = out.I32[0] },
		})
		if err != nil {
			t.Fatal(err)
		}
		wres, err := wired.Submit(context.Background(), serve.Request{
			Fill: fill,
			Consume: func(out *tensor.Tensor) {
				wv = out.I32[0]
				if tr.Offer(Feedback{Features: row, Label: ds.Y[i]}) {
					t.Error("nil trainer accepted feedback")
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if pres.Timing != wres.Timing {
			t.Fatalf("row %d: timing diverged with nil trainer: %+v vs %+v", i, wres.Timing, pres.Timing)
		}
		if pv != wv {
			t.Fatalf("row %d: prediction diverged with nil trainer: %d vs %d", i, wv, pv)
		}
	}
	tr.Quiesce()
	tr.Close()
	if e, _ := g2.Get("m"); e.Version != 1 {
		t.Fatalf("nil trainer published a snapshot (version %d)", e.Version)
	}
}
