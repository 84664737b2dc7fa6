package integrity_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/integrity"
	"hdcedge/internal/pipeline"
)

// testModel trains a tiny nonlinear HDC classifier and compiles
// single-sample inference, so the delegated graph carries a projection, a
// class matrix, biases and a tanh LUT.
func testModel(t *testing.T) (*edgetpu.CompiledModel, *dataset.Dataset) {
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
	cm, err := pipeline.CompileInference(pipeline.EdgeTPU(), model, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cm, ds
}

// loadedDevice returns a device with the model resident and one invoke run
// (so activation LUTs have materialized).
func loadedDevice(t *testing.T, cm *edgetpu.CompiledModel, ds *dataset.Dataset) *edgetpu.Device {
	t.Helper()
	dev := edgetpu.NewDevice(edgetpu.DefaultUSB())
	if _, err := dev.LoadModel(cm); err != nil {
		t.Fatal(err)
	}
	n := ds.Features()
	copy(dev.Input(0).F32, ds.X.F32[:n])
	if _, err := dev.Invoke(); err != nil {
		t.Fatal(err)
	}
	return dev
}

// deviceInvoke returns a CanaryInvoke running directly on the device.
func deviceInvoke(dev *edgetpu.Device) integrity.CanaryInvoke {
	return func(ctx context.Context, c integrity.Canary) (int, float64, error) {
		in := dev.Input(0)
		copy(in.F32[:len(c.Input)], c.Input)
		if _, err := dev.Invoke(); err != nil {
			return 0, 0, err
		}
		return int(dev.Output(0).I32[0]), integrity.MarginRow(dev.Output(1), 0), nil
	}
}

func TestComputeGoldenSegments(t *testing.T) {
	cm, _ := testModel(t)
	g, err := integrity.ComputeGolden(cm)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[integrity.SegmentKind]int{}
	for _, s := range g.Segments {
		kinds[s.Kind]++
		if s.Bytes <= 0 {
			t.Fatalf("segment %q has %d bytes", s.ID, s.Bytes)
		}
	}
	if kinds[integrity.KindProjection] != 1 || kinds[integrity.KindClasses] != 1 {
		t.Fatalf("want one projection and one classes segment, got %v", kinds)
	}
	if kinds[integrity.KindBias] == 0 {
		t.Fatalf("no bias segments in %v", kinds)
	}
	if kinds[integrity.KindLUT] != 1 {
		t.Fatalf("nonlinear model should carry one LUT segment, got %v", kinds)
	}
	if g.Segment("classes_q") == nil || g.Segment("base_T_q") == nil {
		t.Fatal("named segment lookup failed")
	}
	if g.Segment("no-such") != nil {
		t.Fatal("lookup of unknown segment succeeded")
	}
	if g.TotalBytes <= 0 {
		t.Fatalf("TotalBytes = %d", g.TotalBytes)
	}
	// CRCs must be stable across recomputation.
	g2, err := integrity.ComputeGolden(cm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Segments {
		if g.Segments[i].CRC != g2.Segments[i].CRC {
			t.Fatalf("segment %q CRC not deterministic", g.Segments[i].ID)
		}
	}
}

func TestScrubDetectsTensorCorruption(t *testing.T) {
	cm, ds := testModel(t)
	g, err := integrity.ComputeGolden(cm)
	if err != nil {
		t.Fatal(err)
	}
	dev := loadedDevice(t, cm, ds)
	if cs := g.Scrub(dev); len(cs) != 0 {
		t.Fatalf("clean device scrubs dirty: %v", cs)
	}

	seg := g.Segment("classes_q")
	live := dev.ResidentTensor(seg.Tensor)
	live.I8[5] ^= 1 << 3
	cs := g.Scrub(dev)
	if len(cs) != 1 {
		t.Fatalf("want 1 corruption, got %d", len(cs))
	}
	ce := cs[0]
	if ce.Segment != "classes_q" || ce.Offset != 5 {
		t.Fatalf("wrong corruption report: %v", ce)
	}
	if ce.Want == ce.Got {
		t.Fatalf("want/got identical in %v", ce)
	}

	if _, err := dev.RestoreSegment(seg.Tensor); err != nil {
		t.Fatal(err)
	}
	if cs := g.Scrub(dev); len(cs) != 0 {
		t.Fatalf("restored device still dirty: %v", cs)
	}
}

func TestScrubDetectsLUTCorruption(t *testing.T) {
	cm, ds := testModel(t)
	g, err := integrity.ComputeGolden(cm)
	if err != nil {
		t.Fatal(err)
	}
	dev := loadedDevice(t, cm, ds)
	var lutSeg *integrity.Segment
	for i := range g.Segments {
		if g.Segments[i].Kind == integrity.KindLUT {
			lutSeg = &g.Segments[i]
		}
	}
	live := dev.CachedLUT(lutSeg.Op)
	if live == nil {
		t.Fatal("LUT not materialized after invoke")
	}
	live[17] ^= 1 << 6
	cs := g.Scrub(dev)
	if len(cs) != 1 || cs[0].Segment != lutSeg.ID || cs[0].Offset != 17 {
		t.Fatalf("LUT corruption not reported correctly: %v", cs)
	}
}

func TestBuildCanariesAndCheck(t *testing.T) {
	cm, ds := testModel(t)
	n := ds.Features()
	rows := [][]float32{
		ds.X.F32[0:n],
		ds.X.F32[n : 2*n],
		ds.X.F32[2*n : 3*n],
	}
	cs, err := integrity.BuildCanaries(cm.Model, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("want 3 canaries, got %d", len(cs))
	}
	dev := loadedDevice(t, cm, ds)
	invoke := deviceInvoke(dev)
	for i, c := range cs {
		pred, margin, err := invoke(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		// A healthy device must reproduce the recorded answers exactly.
		if pred != c.Label || margin != c.Margin {
			t.Fatalf("canary %d: recorded (%d, %v), healthy device (%d, %v)",
				i, c.Label, c.Margin, pred, margin)
		}
		if ce := c.Check(i, pred, margin); ce != nil {
			t.Fatalf("healthy canary fails: %v", ce)
		}
	}
	c := cs[0]
	if ce := c.Check(0, c.Label+1, c.Margin); ce == nil || ce.Reason != "label flip" {
		t.Fatalf("label flip not caught: %v", ce)
	}
	if c.Margin > 0 {
		if ce := c.Check(0, c.Label, c.Margin*0.25); ce == nil || ce.Reason != "margin collapse" {
			t.Fatalf("margin collapse not caught: %v", ce)
		}
	}
}

func TestCheckerRepairsByRestore(t *testing.T) {
	cm, ds := testModel(t)
	g, err := integrity.ComputeGolden(cm)
	if err != nil {
		t.Fatal(err)
	}
	dev := loadedDevice(t, cm, ds)
	clk := time.Unix(1000, 0)
	var reloads int
	ck, err := integrity.NewChecker(g, integrity.Policy{ScrubInterval: time.Millisecond}, integrity.Deps{
		Worker: 3,
		Target: dev,
		Reload: func() (time.Duration, error) {
			reloads++
			return dev.PowerCycle()
		},
		Clock: func() time.Time { return clk },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Nothing due yet; nothing corrupt once due.
	if evs := ck.Maintain(context.Background(), nil); evs != nil {
		t.Fatalf("maintenance before due: %v", evs)
	}
	clk = clk.Add(2 * time.Millisecond)
	if evs := ck.Maintain(context.Background(), nil); evs != nil {
		t.Fatalf("clean scrub produced events: %v", evs)
	}

	// Corrupt the class matrix and a LUT entry: one incident, both
	// segments restored by the cheapest rung.
	seg := g.Segment("classes_q")
	dev.ResidentTensor(seg.Tensor).I8[0] ^= 1
	for i := range g.Segments {
		if g.Segments[i].Kind == integrity.KindLUT {
			dev.CachedLUT(g.Segments[i].Op)[9] ^= 1
		}
	}
	clk = clk.Add(2 * time.Millisecond)
	evs := ck.Maintain(context.Background(), nil)
	if len(evs) != 1 {
		t.Fatalf("want 1 repair event, got %v", evs)
	}
	e := evs[0]
	if e.Action != integrity.ActionRestore || !e.Repaired || e.Err != nil {
		t.Fatalf("restore rung did not close the incident: %+v", e)
	}
	// The first corrupt segment in scrub order anchors the event: the tanh
	// LUT (op 2) precedes the class matrix (op 3's weights).
	if e.Worker != 3 || e.Seq != 1 || e.Trigger != integrity.TriggerScrub || e.Segment != "lut:2" {
		t.Fatalf("event metadata off: %+v", e)
	}
	if e.SimCost <= 0 {
		t.Fatalf("restore priced at %v", e.SimCost)
	}
	if g.Scrub(dev) != nil {
		t.Fatal("device still corrupt after repair")
	}
	if reloads != 0 {
		t.Fatalf("restore rung escalated to %d reloads", reloads)
	}

	rep := ck.Report()
	if rep.Scrubs != 2 || rep.Corruptions != 2 || rep.Incidents != 1 || rep.Repaired != 1 ||
		rep.Restores != 1 || rep.Reloads != 0 || rep.Quarantines != 0 {
		t.Fatalf("report off: %+v", rep)
	}
	if rep.TimeToRepair.Count() != 1 {
		t.Fatalf("time-to-repair not recorded: %v", rep.TimeToRepair)
	}
	if rep.RepairSimTime <= 0 {
		t.Fatal("repair sim time not accounted")
	}
}

func TestCheckerCanaryEscalatesToQuarantine(t *testing.T) {
	// Canary-only checker on a host worker (no target): a persistent
	// known-answer failure with a failing reload must walk reload →
	// quarantine and take the worker out of service.
	clk := time.Unix(2000, 0)
	quarantined := false
	pol := integrity.Policy{
		CanaryInterval: time.Millisecond,
		Canaries:       []integrity.Canary{{Input: []float32{1}, Label: 0, Margin: 10}},
	}
	ck, err := integrity.NewChecker(nil, pol, integrity.Deps{
		Worker:     1,
		Reload:     func() (time.Duration, error) { return 0, errors.New("boom") },
		Quarantine: func() { quarantined = true },
		Clock:      func() time.Time { return clk },
	})
	if err != nil {
		t.Fatal(err)
	}
	if due, ok := ck.NextDue(); !ok || !due.Equal(clk.Add(time.Millisecond)) {
		t.Fatalf("NextDue = %v, %v", due, ok)
	}

	badInvoke := func(ctx context.Context, c integrity.Canary) (int, float64, error) {
		return c.Label + 1, 0, nil // label flip, forever
	}
	clk = clk.Add(2 * time.Millisecond)
	evs := ck.Maintain(context.Background(), badInvoke)
	if len(evs) != 2 {
		t.Fatalf("want reload+quarantine events, got %v", evs)
	}
	if evs[0].Action != integrity.ActionReload || evs[0].Err == nil || evs[0].Repaired {
		t.Fatalf("first rung: %+v", evs[0])
	}
	if evs[1].Action != integrity.ActionQuarantine || evs[1].Seq != 2 {
		t.Fatalf("second rung: %+v", evs[1])
	}
	if !quarantined {
		t.Fatal("quarantine hook not called")
	}
	if !ck.Quarantined() {
		t.Fatal("checker not marked quarantined")
	}
	if seen := ck.Events(); len(seen) != 2 || seen[0] != evs[0] || seen[1] != evs[1] {
		t.Fatalf("event ring %v, want the two emitted events %v", seen, evs)
	}
	if _, ok := ck.NextDue(); ok {
		t.Fatal("quarantined checker still schedules work")
	}
	clk = clk.Add(time.Hour)
	if evs := ck.Maintain(context.Background(), badInvoke); evs != nil {
		t.Fatalf("quarantined checker still maintains: %v", evs)
	}
	rep := ck.Report()
	if !rep.Quarantined || rep.Quarantines != 1 || rep.Repaired != 0 || rep.CanaryFailures != 1 {
		t.Fatalf("report off: %+v", rep)
	}
	if got := ck.Events(); len(got) != 2 {
		t.Fatalf("events ring holds %d", len(got))
	}
}

func TestCheckerCanaryHealsByReload(t *testing.T) {
	// A transiently-wrong invoke path that comes back after reload closes
	// the incident at the reload rung and records time-to-repair.
	clk := time.Unix(3000, 0)
	healed := false
	pol := integrity.Policy{
		CanaryInterval: time.Millisecond,
		Canaries:       []integrity.Canary{{Input: []float32{1}, Label: 2, Margin: 8}},
	}
	ck, err := integrity.NewChecker(nil, pol, integrity.Deps{
		Reload: func() (time.Duration, error) {
			healed = true
			clk = clk.Add(40 * time.Microsecond) // reload takes wall time
			return 5 * time.Millisecond, nil
		},
		Clock: func() time.Time { return clk },
	})
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(ctx context.Context, c integrity.Canary) (int, float64, error) {
		if healed {
			return c.Label, c.Margin, nil
		}
		return c.Label, c.Margin * 0.1, nil // margin collapse
	}
	clk = clk.Add(2 * time.Millisecond)
	evs := ck.Maintain(context.Background(), invoke)
	if len(evs) != 1 {
		t.Fatalf("want one event, got %v", evs)
	}
	e := evs[0]
	if e.Action != integrity.ActionReload || !e.Repaired || e.Trigger != integrity.TriggerCanary {
		t.Fatalf("reload rung: %+v", e)
	}
	if e.TimeToRepair <= 0 {
		t.Fatalf("time-to-repair %v", e.TimeToRepair)
	}
	if e.SimCost != 5*time.Millisecond {
		t.Fatalf("sim cost %v", e.SimCost)
	}
	rep := ck.Report()
	if rep.Incidents != 1 || rep.Repaired != 1 || rep.Reloads != 1 || rep.Quarantines != 0 {
		t.Fatalf("report off: %+v", rep)
	}
}

func TestCheckerDrainAbortsQuietly(t *testing.T) {
	// A cancelled ctx mid-pass must not escalate the ladder.
	clk := time.Unix(4000, 0)
	pol := integrity.Policy{
		CanaryInterval: time.Millisecond,
		Canaries:       []integrity.Canary{{Input: []float32{1}, Label: 0, Margin: 4}},
	}
	ck, err := integrity.NewChecker(nil, pol, integrity.Deps{
		Reload: func() (time.Duration, error) { return 0, nil },
		Clock:  func() time.Time { return clk },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	invoke := func(ctx context.Context, c integrity.Canary) (int, float64, error) {
		cancel() // drain lands mid-invoke
		return 0, 0, ctx.Err()
	}
	clk = clk.Add(2 * time.Millisecond)
	if evs := ck.Maintain(ctx, invoke); evs != nil {
		t.Fatalf("cancelled pass produced events: %v", evs)
	}
	if ck.Quarantined() {
		t.Fatal("cancelled pass quarantined the worker")
	}
}

func TestPolicyValidateAndEnabled(t *testing.T) {
	var nilPol *integrity.Policy
	if nilPol.Enabled() {
		t.Fatal("nil policy enabled")
	}
	if err := nilPol.Validate(); err != nil {
		t.Fatal(err)
	}
	zero := &integrity.Policy{}
	if zero.Enabled() || zero.Validate() != nil {
		t.Fatal("zero policy must be valid and disabled")
	}
	bad := []integrity.Policy{
		{ScrubInterval: -time.Second},
		{CanaryInterval: -time.Second},
		{CanaryInterval: time.Second}, // interval with no canaries
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad policy %d validated", i)
		}
	}
	on := &integrity.Policy{ScrubInterval: time.Second}
	if !on.Enabled() {
		t.Fatal("scrub-only policy disabled")
	}
}

func TestReportMerge(t *testing.T) {
	var a integrity.Report
	b := integrity.Report{Scrubs: 2, Corruptions: 1, Incidents: 1, Repaired: 1,
		Restores: 1, Quarantined: true, RepairSimTime: time.Second}
	a.Merge(b)
	a.Merge(integrity.Report{Scrubs: 3})
	if a.Scrubs != 5 || a.Corruptions != 1 || !a.Quarantined || a.RepairSimTime != time.Second {
		t.Fatalf("merge off: %+v", a)
	}
}
