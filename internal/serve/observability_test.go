package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/integrity"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertSnapshotMatchesReport pins the acceptance invariant: at quiescence
// the registry snapshot and ServeReport are the same numbers — one source
// of truth, not two sets of books.
func assertSnapshotMatchesReport(t *testing.T, s *Server) {
	t.Helper()
	rep := s.Report()
	snap := s.Metrics().Snapshot()
	counters := map[string]int{
		"hdc_serve_submitted_total":                rep.Submitted,
		"hdc_serve_admitted_total":                 rep.Admitted,
		"hdc_serve_completed_total":                rep.Completed,
		`hdc_serve_shed_total{cause="queue_full"}`: rep.ShedQueueFull,
		`hdc_serve_shed_total{cause="draining"}`:   rep.ShedDraining,
		"hdc_serve_deadline_exceeded_total":        rep.DeadlineExceeded,
		"hdc_serve_cancelled_total":                rep.Cancelled,
		"hdc_serve_drain_forced_total":             rep.DrainForced,
		"hdc_serve_failed_total":                   rep.Failed,
		"hdc_serve_host_fallback_total":            rep.HostFallback,
		"hdc_serve_batch_invokes_total":            rep.BatchInvokes,
		"hdc_serve_batch_rows_total":               rep.BatchRows,
	}
	for name, want := range counters {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("snapshot %s = %d, report says %d", name, got, want)
		}
	}
	if got := snap.Gauges["hdc_serve_queue_depth_max"]; got != int64(rep.MaxQueueDepth) {
		t.Errorf("snapshot queue_depth_max = %d, report says %d", got, rep.MaxQueueDepth)
	}
	if got := snap.Gauges["hdc_serve_batch_rows_max"]; got != int64(rep.MaxBatchRows) {
		t.Errorf("snapshot batch_rows_max = %d, report says %d", got, rep.MaxBatchRows)
	}
	hists := map[string]*metrics.Histogram{
		"hdc_serve_latency_seconds":        rep.Latency,
		"hdc_serve_queue_wait_seconds":     rep.QueueWait,
		"hdc_serve_per_sample_sim_seconds": rep.PerSample,
	}
	for name, want := range hists {
		if got := snap.Histograms[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot histogram %s disagrees with report (count %d vs %d)",
				name, got.Count(), want.Count())
		}
	}
}

// TestBatchAllMembersCancelledReleasesWorker is the regression test for the
// merged-invoke cancellation bug: a coalesced batch ran under a context
// detached from its members, so cancelling every member left the invoke
// (and its pace interval) holding the worker until it finished on its own.
// With the fix, the last member's cancellation cancels the merged context,
// the worker frees immediately, and the breaker is not penalized.
func TestBatchAllMembersCancelledReleasesWorker(t *testing.T) {
	const pace = 600 * time.Millisecond
	p, cm, ds := serveBatchModel(t, 4)
	s, err := New(p, cm, Config{
		Policy:   fastPolicy(),
		MaxBatch: 4, PacePerInvoke: pace,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the worker with a blocker request so the next four coalesce
	// into one merged invoke while it paces.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Do(context.Background(), rowFill(ds, 0), nil); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return s.Report().BatchInvokes >= 1 }, "blocker invoke")

	// Queue four cancellable members; they form the next batch.
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 4)
	for i := 1; i <= 4; i++ {
		fill := rowFill(ds, i)
		go func() {
			_, err := s.Do(ctx, fill, nil)
			errs <- err
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return s.Report().Admitted >= 5 }, "members queued")
	// The merged invoke completes instantly in wall-clock; >= 2 means it
	// ran and the worker is inside the pace interval.
	waitFor(t, 5*time.Second, func() bool { return s.Report().BatchInvokes >= 2 }, "merged invoke")
	if got := s.Report().MaxBatchRows; got != 4 {
		t.Fatalf("members did not coalesce: max batch rows %d, want 4", got)
	}

	// Cancel every member mid-pace. The worker must free well before the
	// pace interval elapses. Each member settles as cancelled, or — when
	// the freed worker wins the settle race — with the result its invoke
	// had already computed; both are legitimate, the hang is not.
	cancel()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("member settled with %v, want nil or context.Canceled", err)
		}
	}
	start := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(start); took > pace/2 {
		t.Fatalf("drain took %v: cancelled batch kept its worker occupied (pace %v)", took, pace)
	}
	wg.Wait()

	rep := s.Report()
	if rep.Cancelled+rep.Completed != 5 { // blocker + 4 members
		t.Fatalf("cancelled %d + completed %d != 5\n%s", rep.Cancelled, rep.Completed, rep)
	}
	if rep.Reliability.BreakerTrips != 0 || rep.Reliability.LinkFaults != 0 {
		t.Fatalf("cancellation penalized the breaker: %+v", rep.Reliability)
	}
}

// TestLiveSnapshotMidServe checks the live-observability acceptance: while
// the fleet is saturated, a snapshot exposes queue depth, shed counts,
// per-backend invoke telemetry, and breaker states — without waiting for
// the run to finish.
func TestLiveSnapshotMidServe(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{
		Policy:        fastPolicy(),
		QueueCapacity: 2, PacePerInvoke: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	do := func(i int) {
		defer wg.Done()
		s.Do(ctx, rowFill(ds, i), nil)
	}
	wg.Add(1)
	go do(0) // blocker: in-flight, pacing
	waitFor(t, 5*time.Second, func() bool { return s.Report().BatchInvokes >= 1 }, "blocker invoke")
	wg.Add(2)
	go do(1)
	go do(2) // fill the queue
	waitFor(t, 5*time.Second, func() bool {
		return s.Metrics().Snapshot().Gauges["hdc_serve_queue_depth"] == 2
	}, "queue depth 2")
	// Two more must shed on the full queue.
	for i := 3; i <= 4; i++ {
		var shed *ShedError
		if _, err := s.Do(context.Background(), rowFill(ds, i), nil); !errors.As(err, &shed) {
			t.Fatalf("request %d: got %v, want ShedError", i, err)
		}
	}

	snap := s.Metrics().Snapshot()
	if got := snap.Gauges["hdc_serve_queue_depth"]; got != 2 {
		t.Errorf("live queue depth %d, want 2", got)
	}
	if got := snap.Counters[`hdc_serve_shed_total{cause="queue_full"}`]; got != 2 {
		t.Errorf("live shed count %d, want 2", got)
	}
	backendHist := snap.Histograms[workerSeries("hdc_backend_invoke_sim_seconds", "", 0, "tpu", cm)]
	if backendHist == nil || backendHist.Count() < 1 {
		t.Errorf("per-backend invoke histogram missing or empty mid-serve: %v", snap.Names())
	}
	if got, ok := snap.Gauges[workerSeries("hdc_runner_breaker_state", "", 0, "tpu", cm)]; !ok {
		t.Errorf("breaker state gauge missing: %v", snap.Names())
	} else if got != 0 {
		t.Errorf("healthy breaker state gauge = %d, want 0 (closed)", got)
	}

	cancel()
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	assertSnapshotMatchesReport(t, s)
}

// sumSeries hands add every series of a snapshot map whose name starts
// with prefix: family+"{" selects every label set of one family.
func sumSeries[V int64 | *metrics.Histogram](m map[string]V, prefix string, add func(V)) {
	for name, v := range m {
		if strings.HasPrefix(name, prefix) {
			add(v)
		}
	}
}

// TestServeReportSumsRegistrySeries pins that ServeReport's reliability,
// integrity and memory blocks are views of the registry: at quiescence each
// field equals the sum of its series. The run covers the ways counts could
// split between two sets of books: faults with retries, fallbacks and
// breaker trips, scrub repairs of bit flips, two models on one device, and
// a hot swap that rebinds one of them mid-run. Runs under -race via make
// tenant-smoke.
func TestServeReportSumsRegistrySeries(t *testing.T) {
	p, _, ds := serveModel(t)
	g := serveRegistry(t, p, ds, 2)
	policy := fastPolicy()
	policy.BreakerThreshold, policy.BreakerCooldown = 1, 2
	s, err := New(p, nil, Config{
		Policy:    policy,
		Plan:      edgetpu.FaultPlan{Seed: 5, LinkErrorRate: 0.5, ResetRate: 0.05, BitFlipRate: 1e-3},
		Registry:  g,
		Integrity: &integrity.Policy{ScrubInterval: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Report reads the runners' and checkers' handles while the worker
	// invokes and repairs; under -race this is the proof that it may. The
	// counts it reads must never move backwards.
	stop := make(chan struct{})
	reader := make(chan struct{})
	var stopOnce sync.Once
	stopReader := func() {
		stopOnce.Do(func() { close(stop) })
		<-reader
	}
	defer stopReader() // a failed request must not leave the reader running
	go func() {
		defer close(reader)
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep := s.Report()
			n := rep.Reliability.Invokes + rep.Integrity.Scrubs + rep.Memory[0].Hits
			if n < last {
				t.Errorf("mid-serve report counts went backwards: %d after %d", n, last)
				return
			}
			last = n
		}
	}()
	serveSome := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			model := "m" + fmt.Sprint(i%2)
			if _, err := s.Submit(context.Background(), Request{Model: model, Fill: rowFill(ds, i%ds.Samples())}); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if i%10 == 9 {
				time.Sleep(300 * time.Microsecond) // idle gaps let scrubs run
			}
		}
	}
	serveSome(60)
	model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{Dim: 256, Epochs: 1, LearningRate: 1, Nonlinear: true, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := pipeline.CompileInference(p, model, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Swap("m0", cm, nil); err != nil {
		t.Fatal(err)
	}
	serveSome(60)
	stopReader()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	rep := s.Report()
	snap := s.Metrics().Snapshot()
	count := func(family string) int {
		var n int64
		sumSeries(snap.Counters, family+"{", func(v int64) { n += v })
		return int(n)
	}
	gauge := func(family string) int {
		var n int64
		sumSeries(snap.Gauges, family+"{", func(v int64) { n += v })
		return int(n)
	}
	ns := func(family string) time.Duration { return time.Duration(count(family)) }
	type field struct {
		name      string
		got, want any
	}
	check := func(block string, fields []field) {
		t.Helper()
		for _, f := range fields {
			if f.got != f.want {
				t.Errorf("%s.%s = %v, its series sum to %v", block, f.name, f.got, f.want)
			}
		}
	}

	r := rep.Reliability
	if r.Invokes != rep.Completed || r.Retries == 0 || r.FallbackInvokes == 0 {
		t.Fatalf("scenario exercised too little: completed %d, %+v", rep.Completed, r)
	}
	check("Reliability", []field{
		{"Invokes", r.Invokes, count("hdc_runner_invokes_total")},
		{"DeviceInvokes", r.DeviceInvokes, count("hdc_runner_device_invokes_total")},
		{"Retries", r.Retries, count("hdc_runner_retries_total")},
		{"LinkFaults", r.LinkFaults, count("hdc_runner_link_faults_total")},
		{"Resets", r.Resets, count("hdc_runner_resets_total")},
		{"Reloads", r.Reloads, count("hdc_runner_reloads_total")},
		{"FallbackInvokes", r.FallbackInvokes, count("hdc_runner_fallback_invokes_total")},
		{"BreakerTripped", r.BreakerTripped, count("hdc_runner_breaker_trips_total") > 0},
		{"BreakerTrips", r.BreakerTrips, count("hdc_runner_breaker_trips_total")},
		{"BreakerProbes", r.BreakerProbes, count("hdc_runner_breaker_probes_total")},
		{"BreakerCloses", r.BreakerCloses, count("hdc_runner_breaker_closes_total")},
		{"BackoffTime", r.BackoffTime, ns("hdc_runner_backoff_ns_total")},
		{"ReloadTime", r.ReloadTime, ns("hdc_runner_reload_ns_total")},
		{"WastedTime", r.WastedTime, ns("hdc_runner_wasted_ns_total")},
		{"FallbackTime", r.FallbackTime, ns("hdc_runner_fallback_ns_total")},
	})

	ig := rep.Integrity
	if ig == nil || ig.Scrubs == 0 {
		t.Fatalf("no scrubs ran: %+v", ig)
	}
	ttr := metrics.NewHistogram()
	sumSeries(snap.Histograms, "hdc_integrity_time_to_repair_seconds{", ttr.Merge)
	repairs := func(a integrity.Action) int {
		var n int64
		sumSeries(snap.Counters, `hdc_integrity_repairs_total{action="`+a.String()+`",`, func(v int64) { n += v })
		return int(n)
	}
	check("Integrity", []field{
		{"Scrubs", ig.Scrubs, count("hdc_integrity_scrubs_total")},
		{"Corruptions", ig.Corruptions, count("hdc_integrity_corruptions_total")},
		{"CanaryRuns", ig.CanaryRuns, count("hdc_integrity_canary_runs_total")},
		{"CanaryFailures", ig.CanaryFailures, count("hdc_integrity_canary_failures_total")},
		{"Incidents", ig.Incidents, count("hdc_integrity_incidents_total")},
		{"Repaired", ig.Repaired, ttr.Count()},
		{"Restores", ig.Restores, repairs(integrity.ActionRestore)},
		{"Reloads", ig.Reloads, repairs(integrity.ActionReload)},
		{"Resets", ig.Resets, repairs(integrity.ActionReset)},
		{"Quarantines", ig.Quarantines, repairs(integrity.ActionQuarantine)},
		{"Quarantined", ig.Quarantined, gauge("hdc_integrity_quarantined") > 0},
		{"RepairSimTime", ig.RepairSimTime, ns("hdc_integrity_repair_sim_ns_total")},
	})
	if !reflect.DeepEqual(ig.TimeToRepair, ttr) {
		t.Errorf("Integrity.TimeToRepair (count %d) disagrees with its series (count %d)", ig.TimeToRepair.Count(), ttr.Count())
	}

	if len(rep.Memory) != 1 || rep.Memory[0].Misses == 0 {
		t.Fatalf("memory stats %+v", rep.Memory)
	}
	m := rep.Memory[0]
	check("Memory", []field{
		{"Hits", m.Hits, count("hdc_registry_hits_total")},
		{"Misses", m.Misses, count("hdc_registry_misses_total")},
		{"Evictions", m.Evictions, count("hdc_registry_evictions_total")},
		{"SwapTime", m.SwapTime, ns("hdc_registry_swap_ns_total")},
		{"Used", m.Used, gauge("hdc_registry_mem_used_bytes")},
		{"Resident", m.Resident, gauge("hdc_registry_resident_models")},
	})
}

// TestSnapshotMonotoneUnderSaturatedFleet hammers Registry.Snapshot from a
// reader goroutine while a heterogeneous TPU+CPU fleet serves a saturating
// open loop, asserting counters and histogram counts never move backwards,
// and that the final snapshot agrees with the final ServeReport exactly.
// Run under -race, this is also the data-race proof for the lock-free path.
func TestSnapshotMonotoneUnderSaturatedFleet(t *testing.T) {
	p, cm, ds := serveBatchModel(t, 4)
	s, err := New(p, cm, Config{
		Fleet: FleetSpec{"tpu", "cpu"}, Policy: fastPolicy(),
		QueueCapacity: 8, MaxBatch: 4, BatchWindow: 200 * time.Microsecond,
		PacePerInvoke: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		prevC := map[string]int64{}
		prevH := map[string]int{}
		for {
			snap := s.Metrics().Snapshot()
			for name, v := range prevC {
				if snap.Counters[name] < v {
					snapErr = fmt.Errorf("counter %s went backwards: %d -> %d", name, v, snap.Counters[name])
					return
				}
			}
			for name, v := range prevH {
				h := snap.Histograms[name]
				if h == nil || h.Count() < v {
					snapErr = fmt.Errorf("histogram %s count went backwards from %d", name, v)
					return
				}
			}
			for name, v := range snap.Counters {
				prevC[name] = v
			}
			for name, h := range snap.Histograms {
				prevH[name] = h.Count()
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// The scheduler promises no split of the load between the two
	// workers, so one round of 300 requests can leave one of them idle.
	// Offer rounds until the report shows that each worker served, up to
	// a cap.
	const n, maxRounds = 300, 20
	invokes := func(rep ServeReport, class string) int {
		for _, b := range rep.Backends {
			if b.Name == class {
				return b.Invokes
			}
		}
		return 0
	}
	for round := 0; ; round++ {
		if rep := s.Report(); invokes(rep, "tpu") > 0 && invokes(rep, "cpu") > 0 {
			break
		}
		if round == maxRounds {
			t.Fatalf("a worker stayed idle through %d rounds of %d requests:\n%s", maxRounds, n, s.Report())
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			fill := rowFill(ds, i%ds.Samples())
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Sheds are expected at this offered load; every outcome counts.
				s.Do(context.Background(), fill, nil)
			}()
			if i%8 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
		wg.Wait()
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	rep := s.Report()
	if rep.Settled() != rep.Submitted {
		t.Fatalf("%d submitted, %d settled\n%s", rep.Submitted, rep.Settled(), rep)
	}
	assertSnapshotMatchesReport(t, s)

	// Both workers served, so both must have streamed per-worker
	// telemetry, one backend invoke per invoke the report counts.
	snap := s.Metrics().Snapshot()
	for i, class := range []string{"tpu", "cpu"} {
		name := workerSeries("hdc_backend_invokes_total", "", i, class, cm)
		if got, want := snap.Counters[name], invokes(rep, class); got != int64(want) || got == 0 {
			t.Errorf("%s = %d, report counts %d invokes: %v", name, got, want, snap.Names())
		}
	}
}

// TestTraceRing checks the per-request span ring: completed requests carry
// the full admit→queue→batch-hold→invoke→settle breakdown with worker,
// backend and batch annotations; the ring is bounded.
func TestTraceRing(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{Policy: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 0; i < n; i++ {
		if _, err := s.Do(context.Background(), rowFill(ds, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	traces := s.Traces()
	if len(traces) != n {
		t.Fatalf("ring holds %d traces, want %d", len(traces), n)
	}
	for i, tr := range traces {
		if i > 0 && tr.ID <= traces[i-1].ID {
			t.Errorf("trace IDs out of order: %d then %d", traces[i-1].ID, tr.ID)
		}
		if tr.Err != "" {
			t.Errorf("trace %d carries error %q on a clean run", tr.ID, tr.Err)
		}
		if tr.Worker != 0 || tr.Backend != "tpu" || tr.Batch != 1 {
			t.Errorf("trace %d annotations off: %+v", tr.ID, tr)
		}
		if tr.Breaker != "closed" {
			t.Errorf("trace %d breaker %q, want closed", tr.ID, tr.Breaker)
		}
		if tr.Total < tr.Queue+tr.BatchHold+tr.Invoke {
			t.Errorf("trace %d spans exceed total: %+v", tr.ID, tr)
		}
	}
	// The ring keeps the most recent settles: the last trace is request n.
	if last := traces[len(traces)-1].ID; last != n {
		t.Errorf("newest trace ID %d, want %d", last, n)
	}

	// The ring is bounded and keeps the most recent settles, oldest first.
	ring := newTraceRing(4)
	now := time.Now()
	for id := uint64(1); id <= n; id++ {
		ring.record(&request{id: id, enq: now}, outcome{}, now, now)
	}
	kept := ring.list()
	if len(kept) != 4 {
		t.Fatalf("ring holds %d traces, want 4 (depth)", len(kept))
	}
	for i, tr := range kept {
		if want := uint64(n - 3 + i); tr.ID != want {
			t.Errorf("kept trace %d has ID %d, want %d", i, tr.ID, want)
		}
	}
}

// TestHTTPEndpoints drives the observability handler end to end: Prometheus
// exposition, JSON snapshot, and trace dump.
func TestHTTPEndpoints(t *testing.T) {
	p, cm, ds := serveModel(t)
	s, err := New(p, cm, Config{Policy: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Do(context.Background(), rowFill(ds, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	h := s.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec
	}

	prom := get("/metrics").Body.String()
	for _, want := range []string{
		"# TYPE hdc_serve_submitted_total counter",
		"hdc_serve_submitted_total 3",
		workerSeries("hdc_backend_invoke_sim_seconds_count", "", 0, "tpu", cm) + " 3",
		workerSeries("hdc_runner_breaker_state", "", 0, "tpu", cm) + " 0",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, prom)
		}
	}

	var snap snapshotJSON
	if err := json.Unmarshal(get("/snapshot").Body.Bytes(), &snap); err != nil {
		t.Fatalf("/snapshot JSON: %v", err)
	}
	if snap.Health != "healthy" || snap.Counters["hdc_serve_completed_total"] != 3 {
		t.Errorf("/snapshot content off: health %q counters %v", snap.Health, snap.Counters)
	}
	if hs, ok := snap.Histograms["hdc_serve_latency_seconds"]; !ok || hs.Count != 3 {
		t.Errorf("/snapshot latency summary off: %+v (present %v)", hs, ok)
	}

	var traces []Trace
	if err := json.Unmarshal(get("/traces").Body.Bytes(), &traces); err != nil {
		t.Fatalf("/traces JSON: %v", err)
	}
	if len(traces) != 3 || traces[0].Backend != "tpu" {
		t.Errorf("/traces content off: %+v", traces)
	}

	if rec := get("/debug/pprof/cmdline"); rec.Body.Len() == 0 {
		t.Error("/debug/pprof/cmdline returned no body")
	}
}
