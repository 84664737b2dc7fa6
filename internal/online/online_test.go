package online

import (
	"testing"

	"hdcedge/internal/dataset"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/rng"
)

// harness builds a trained model, a registry holding its compiled form
// under id "m", and the datasets the tests feed back.
func harness(t *testing.T, dim int) (pipeline.Platform, *registry.Registry, *hdc.Model, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(16, 200, 3, 41), 0)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
		Dim: dim, Epochs: 3, LearningRate: 1, Nonlinear: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.EdgeTPU()
	cm, err := pipeline.CompileInference(p, model, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := registry.New()
	if _, err := g.Register("m", cm, nil); err != nil {
		t.Fatal(err)
	}
	return p, g, model, ds
}

// permuteFeatures returns a copy of ds with its feature columns permuted
// by a fixed seeded shuffle — the injected distribution shift used across
// the online tests and the ablation-drift experiment.
func permuteFeatures(ds *dataset.Dataset, seed uint64) *dataset.Dataset {
	perm := rng.New(seed).Perm(ds.Features())
	out := &dataset.Dataset{
		Name:    ds.Name + "-shifted",
		Classes: ds.Classes,
		X:       ds.X.Clone(),
		Y:       append([]int(nil), ds.Y...),
	}
	for i := 0; i < ds.Samples(); i++ {
		src := ds.X.Row(i)
		dst := out.X.Row(i)
		for j, pj := range perm {
			dst[j] = src[pj]
		}
	}
	return out
}

func TestTrainerPublishesSnapshots(t *testing.T) {
	p, g, model, ds := harness(t, 256)
	met := metrics.NewRegistry()
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
	// Feed shifted samples so predictions miss and updates accumulate.
	shifted := permuteFeatures(ds, 99)
	for i := 0; i < shifted.Samples(); i++ {
		if !tr.Offer(Feedback{Features: shifted.X.Row(i), Label: shifted.Y[i]}) {
			tr.Quiesce() // queue full: let the loop catch up, then retry once
			tr.Offer(Feedback{Features: shifted.X.Row(i), Label: shifted.Y[i]})
		}
	}
	tr.Quiesce()
	tr.Close()

	st := tr.Stats()
	if st.Feedback == 0 || st.Updates == 0 {
		t.Fatalf("no feedback applied: %+v", st)
	}
	if st.Snapshots == 0 {
		t.Fatalf("no snapshots published: %+v", st)
	}
	e, ok := g.Get("m")
	if !ok || e.Version < 2 {
		t.Fatalf("registry version %d after %d snapshots", e.Version, st.Snapshots)
	}
	if int64(e.Version-1) != st.Snapshots {
		t.Fatalf("version %d does not match %d published snapshots", e.Version, st.Snapshots)
	}
	// The published telemetry must flow through the shared registry.
	snap := met.Snapshot()
	if snap.Counters["hdc_online_snapshots_total"] != st.Snapshots {
		t.Fatalf("metrics registry missed snapshots: %+v", snap.Counters)
	}
	if snap.Counters["hdc_online_updates_total"] != st.Updates {
		t.Fatalf("metrics registry missed updates: %+v", snap.Counters)
	}
}

func TestTrainerDriftTriggersRegeneration(t *testing.T) {
	p, g, model, ds := harness(t, 256)
	tr, err := New(p, g, &Config{
		SnapshotEvery:  1 << 30, // isolate regen-driven publication
		DriftWindow:    16,
		DriftThreshold: 0.10,
		RegenCooldown:  32,
		Buffer:         128,
		RegenEpochs:    2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach("m", model, ds); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	offer := func(d *dataset.Dataset, rounds int) {
		for round := 0; round < rounds; round++ {
			for i := 0; i < d.Samples(); i++ {
				if !tr.Offer(Feedback{Features: d.X.Row(i), Label: d.Y[i]}) {
					tr.Quiesce()
					tr.Offer(Feedback{Features: d.X.Row(i), Label: d.Y[i]})
				}
			}
			tr.Quiesce()
		}
	}
	// Establish the accuracy baseline on the training distribution, then
	// shift: feedback accuracy collapses, the gap crosses the threshold,
	// and a regeneration (with its snapshot) must fire.
	offer(ds, 2)
	base := tr.Stats()
	if base.Regens != 0 {
		t.Fatalf("regen fired on the stable distribution: %+v", base)
	}
	offer(permuteFeatures(ds, 99), 3)
	tr.Close()
	st := tr.Stats()
	if st.Regens == 0 {
		t.Fatalf("distribution shift never triggered regeneration: %+v", st)
	}
	if st.Snapshots < st.Regens {
		t.Fatalf("regeneration did not publish: %+v", st)
	}
	if e, _ := g.Get("m"); int64(e.Version-1) != st.Snapshots {
		t.Fatalf("version %d vs %d snapshots", e.Version, st.Snapshots)
	}
	if st.PublishErrors != 0 {
		t.Fatalf("publish errors: %+v", st)
	}
}

func TestTrainerDropsWhenQueueFull(t *testing.T) {
	p, g, model, ds := harness(t, 256)
	tr, err := New(p, g, &Config{Queue: 2, DriftWindow: 8, Buffer: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach("m", model, ds); err != nil {
		t.Fatal(err)
	}
	// Not started: the queue cannot drain, so offers past capacity must
	// drop rather than block.
	accepted := 0
	for i := 0; i < 10; i++ {
		if tr.Offer(Feedback{Features: ds.X.Row(i), Label: ds.Y[i]}) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d offers into a capacity-2 queue", accepted)
	}
	if st := tr.Stats(); st.Dropped != 8 {
		t.Fatalf("dropped counter %d, want 8", st.Dropped)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	tr.Close()
}

func TestTrainerRejectsMalformedFeedback(t *testing.T) {
	p, g, model, ds := harness(t, 256)
	tr, err := New(p, g, &Config{DriftWindow: 8, Buffer: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach("m", model, ds); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	tr.Offer(Feedback{Features: make([]float32, 3), Label: 0})          // wrong width
	tr.Offer(Feedback{Features: ds.X.Row(0), Label: 99})                // bad label
	tr.Offer(Feedback{Model: "ghost", Features: ds.X.Row(0), Label: 0}) // unknown model
	tr.Quiesce()
	tr.Close()
	st := tr.Stats()
	if st.Dropped != 3 {
		t.Fatalf("malformed feedback dropped %d, want 3", st.Dropped)
	}
	if st.Updates != 0 {
		t.Fatalf("malformed feedback applied updates: %+v", st)
	}
	if e, _ := g.Get("m"); e.Version != 1 {
		t.Fatalf("malformed feedback published a snapshot (version %d)", e.Version)
	}
}

func TestNilTrainerIsInert(t *testing.T) {
	tr, err := New(pipeline.EdgeTPU(), registry.New(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		t.Fatal("nil config built a trainer")
	}
	// Every method on the nil trainer must be a safe no-op.
	if tr.Offer(Feedback{Features: []float32{1}, Label: 0}) {
		t.Fatal("nil trainer accepted feedback")
	}
	if err := tr.Attach("m", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	tr.Quiesce()
	tr.Close()
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("nil trainer reported stats %+v", st)
	}
}

func TestTrainerAttachValidation(t *testing.T) {
	p, g, model, ds := harness(t, 256)
	tr, err := New(p, g, &Config{DriftWindow: 8, Buffer: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach("ghost", model, ds); err == nil {
		t.Fatal("attach of unregistered model accepted")
	}
	if err := tr.Attach("m", nil, ds); err == nil {
		t.Fatal("nil model accepted")
	}
	if err := tr.Attach("m", model, ds); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach("m", model, ds); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach("m2", model, ds); err == nil {
		t.Fatal("attach after Start accepted")
	}
	if err := tr.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	tr.Close()
	tr.Close() // idempotent
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Queue: -1},
		{LearningRate: -1},
		{Margin: 1},
		{DriftWindow: 1},
		{DriftThreshold: 1},
		{RegenFraction: 1.5},
		{RegenEpochs: -1},
		{RegenCooldown: -1},
		{Buffer: 8, DriftWindow: 64},
		{Batch: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

func TestDriftDetectorGapAndReset(t *testing.T) {
	d := newDriftDetector(16, 0.15)
	// Stable high accuracy: no trigger, score near zero.
	for i := 0; i < 200; i++ {
		if d.observe(i%10 != 0) { // 90% accuracy
			t.Fatalf("stable stream triggered at %d (score %.3f)", i, d.score())
		}
	}
	if s := d.score(); s > 0.12 || s < -0.12 {
		t.Fatalf("stable score %.3f not near zero", s)
	}
	// Collapse to 10% accuracy: the fast average falls first and the gap
	// must cross the threshold.
	fired := false
	for i := 0; i < 200 && !fired; i++ {
		fired = d.observe(i%10 == 0)
	}
	if !fired {
		t.Fatal("accuracy collapse never triggered")
	}
	// reset re-anchors: the very next observation must not re-trigger.
	d.reset()
	if d.observe(false) {
		t.Fatal("detector re-triggered immediately after reset")
	}
}

func TestReplayRingWrapsChronologically(t *testing.T) {
	r := newReplayRing(4, 2)
	for i := 0; i < 6; i++ {
		r.push([]float32{float32(i), float32(-i)}, i)
	}
	if r.len() != 4 {
		t.Fatalf("ring length %d, want 4", r.len())
	}
	x, y := r.design()
	// Oldest surviving sample is 2; order must be 2,3,4,5.
	for i := 0; i < 4; i++ {
		want := i + 2
		if y[i] != want || x.Row(i)[0] != float32(want) {
			t.Fatalf("slot %d: label %d features %v, want sample %d", i, y[i], x.Row(i), want)
		}
	}
}
