package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"hdcedge/internal/edgetpu"
	"hdcedge/internal/integrity"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/tensor"
)

// TestServeIntegrityScrubRepairsSEU is the seeded SEU smoke scenario (see
// `make seu-smoke`): a single device takes a heavy bit-flip rate while
// serving, and the scrubbing layer must detect the corruption and close
// every incident through the repair ladder — no quarantine, since a
// re-upload of pristine bytes always heals SEU damage.
func TestServeIntegrityScrubRepairsSEU(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{
		Policy: fastPolicy(),
		Plan:   edgetpu.FaultPlan{Seed: 5, BitFlipRate: 1e-3},
		Integrity: &integrity.Policy{
			ScrubInterval: 200 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const reqs = 200
	for i := 0; i < reqs; i++ {
		if _, err := s.Do(context.Background(), rowFill(ds, i%ds.Samples()), nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i%25 == 24 {
			time.Sleep(300 * time.Microsecond) // idle gaps let scrubs run
		}
	}
	time.Sleep(time.Millisecond) // one more idle window for a final scrub
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	rep := s.Report()
	g := rep.Integrity
	if g == nil {
		t.Fatal("integrity-enabled server reports no integrity section")
	}
	if g.Scrubs == 0 {
		t.Fatal("no scrubs ran")
	}
	// At ~1e-3 per bit per invoke over a ~40 kbit resident image, every
	// scrub window sees flips; zero detections means scrubbing is broken.
	if g.Corruptions == 0 {
		t.Fatalf("SEU storm went undetected: %+v", g)
	}
	if g.Incidents == 0 || g.Repaired != g.Incidents {
		t.Fatalf("incidents not all repaired: %+v", g)
	}
	if g.Restores == 0 {
		t.Fatalf("no segment re-uploads: %+v", g)
	}
	if g.Quarantines != 0 || g.Quarantined {
		t.Fatalf("SEU damage must heal without quarantine: %+v", g)
	}
	if g.TimeToRepair.Count() != g.Repaired {
		t.Fatalf("time-to-repair count %d != repaired %d", g.TimeToRepair.Count(), g.Repaired)
	}
	if g.RepairSimTime <= 0 {
		t.Fatal("repair actions cost no simulated time")
	}
	evs := s.IntegrityEvents()
	if len(evs) == 0 {
		t.Fatal("no repair events retained")
	}
	for _, e := range evs {
		if e.Trigger != integrity.TriggerScrub {
			t.Fatalf("unexpected trigger: %+v", e)
		}
	}
	if rep.Health != Healthy {
		t.Fatalf("self-healed server reports %s", rep.Health)
	}
	// The metric mirrors of the report must agree.
	snap := s.Metrics().Snapshot()
	scrubs := workerSeries("hdc_integrity_scrubs_total", "", 0, "tpu", cm)
	if snap.Counters[scrubs] != int64(g.Scrubs) {
		t.Fatalf("scrub counter disagrees with report: %v vs %d", snap.Counters[scrubs], g.Scrubs)
	}
	if snap.Counters[workerSeries("hdc_integrity_repairs_total", `action="segment-reupload"`, 0, "tpu", cm)] != int64(g.Restores) {
		t.Fatal("repair counter disagrees with report")
	}
}

// TestServeIntegrityCanaryQuarantinesUnrepairable walks the whole ladder:
// canaries that can never pass (their recorded labels are impossible) fail
// after reload and reset alike, so the worker must end quarantined — and
// the server must keep serving from the host through the open breaker.
func TestServeIntegrityCanaryQuarantinesUnrepairable(t *testing.T) {
	p, cm, ds := serveModel(t)
	n := ds.Features()
	canary := integrity.Canary{
		Input: append([]float32(nil), ds.X.F32[:n]...),
		Label: -7, // no argmax ever returns this
	}
	s, err := New(p, cm, Config{
		Policy: fastPolicy(),
		Integrity: &integrity.Policy{
			CanaryInterval: time.Millisecond,
			Canaries:       []integrity.Canary{canary},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if rep := s.Report(); rep.Integrity != nil && rep.Integrity.Quarantined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never quarantined: %+v", s.Report().Integrity)
		}
		time.Sleep(time.Millisecond)
	}

	evs := s.IntegrityEvents()
	if len(evs) != 3 {
		t.Fatalf("want reload/reset/quarantine events, got %v", evs)
	}
	wantActions := []integrity.Action{integrity.ActionReload, integrity.ActionReset, integrity.ActionQuarantine}
	for i, e := range evs {
		if e.Action != wantActions[i] || e.Seq != i+1 || e.Trigger != integrity.TriggerCanary {
			t.Fatalf("event %d: %+v", i, e)
		}
		if e.Repaired {
			t.Fatalf("unrepairable incident closed: %+v", e)
		}
	}

	// The quarantined worker serves through its degraded mode: requests
	// still complete, on the host, and health reflects the lost device.
	res, err := s.Do(context.Background(), rowFill(ds, 0), nil)
	if err != nil {
		t.Fatalf("quarantined serve: %v", err)
	}
	if !res.OnHost {
		t.Fatalf("quarantined worker served on device: %+v", res)
	}
	if h := s.Health(); h == Healthy {
		t.Fatalf("quarantined fleet reports %s", h)
	}
	rep := s.Report()
	if rep.Integrity.Quarantines != 1 || rep.Integrity.Repaired != 0 {
		t.Fatalf("report off: %+v", rep.Integrity)
	}
	snap := s.Metrics().Snapshot()
	if snap.Gauges[workerSeries("hdc_integrity_quarantined", "", 0, "tpu", cm)] != 1 {
		t.Fatal("quarantined gauge not set")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain of quarantined server: %v", err)
	}
}

// TestServeDrainDuringCanaryBackoffSettles extends the drain-vs-hang race
// coverage to integrity maintenance: a canary invoke wedged in retry
// backoff behind a dead link must be cut short by the drain force path, the
// pass must abort quietly (no quarantine), and Drain must return.
func TestServeDrainDuringCanaryBackoffSettles(t *testing.T) {
	p, cm, ds := serveModel(t)
	n := ds.Features()
	policy := pipeline.DefaultRecoveryPolicy()
	policy.BaseBackoff = time.Minute // wedge: only cancellation gets out
	policy.MaxBackoff = time.Minute
	s, err := New(p, cm, Config{
		Policy:        policy,
		Plan:          edgetpu.FaultPlan{Seed: 3, LinkErrorRate: 1},
		DrainDeadline: 50 * time.Millisecond,
		Integrity: &integrity.Policy{
			CanaryInterval: time.Millisecond,
			Canaries: []integrity.Canary{{
				Input: append([]float32(nil), ds.X.F32[:n]...),
				Label: 0,
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Let the canary pass start and sink into its minute-long backoff.
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	err = s.Drain(context.Background())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v with a wedged canary", elapsed)
	}
	var de *DrainError
	if err != nil && !errors.As(err, &de) {
		t.Fatalf("drain returned %v", err)
	}
	rep := s.Report()
	if rep.Integrity == nil {
		t.Fatal("no integrity report")
	}
	if rep.Integrity.Quarantines != 0 {
		t.Fatalf("aborted canary pass quarantined the worker: %+v", rep.Integrity)
	}
}

// TestServeIntegrityDisabledBitIdentical is the regression gate for the
// integrity layer's zero-cost-when-off guarantee: a server with a disabled
// (zero) integrity policy must produce per-invoke timing and predictions
// bit-identical to a direct ResilientRunner, exactly like a nil policy.
func TestServeIntegrityDisabledBitIdentical(t *testing.T) {
	p, cm, ds := serveModel(t)
	policy := pipeline.DefaultRecoveryPolicy()
	direct, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, cm, Config{
		Policy:    policy,
		Integrity: &integrity.Policy{}, // present but disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 16; i++ {
		fill := rowFill(ds, i)
		dt, err := direct.InvokeBatch(0, fill)
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
		if res.Timing != dt || got != want {
			t.Fatalf("row %d diverged: timing %+v vs %+v, pred %d vs %d", i, res.Timing, dt, got, want)
		}
	}
	rep := s.Report()
	if rep.Integrity != nil {
		t.Fatalf("disabled policy produced an integrity report: %+v", rep.Integrity)
	}
}
