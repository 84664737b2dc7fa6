package main

import (
	"runtime"
	"time"

	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/backend/hostcpu"
	"hdcedge/internal/backend/tpu"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/online"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/serve"
)

// The serving shape: PAMAP2 (n=27, k=5) at d=10,000, two workers
// coalescing up to 16 rows per invoke, and a closed loop holding
// workers × MaxBatch requests outstanding. Pacing stays off
// (PacePerInvoke=0, PaceScale=0): wall time is the Go stack's own cost.
const (
	maxBatch       = 16
	workers        = 2
	clients        = workers * maxBatch
	pamTrainRows   = 1000
	pamHeldRows    = 2048
	servingSetups  = 9
	int8Epochs     = 10
	int8Limit      = 40 * time.Millisecond
	binInitRows    = 200
	binLimit       = 150 * time.Millisecond
	feedbackEvery  = 8
	feedbackBuffer = 1 << 16
)

// servingSetup is one constructed serving stack.
type servingSetup struct {
	train, held *dataset.Dataset
	model       *hdc.Model // the classifier the server started with
	cm          *edgetpu.CompiledModel
	srv         *serve.Server
	reg         *registry.Registry // bin-online only
	trainer     *online.Trainer    // bin-online only
	trainSet    *dataset.Dataset   // what model was trained on, with trainCfg
	trainCfg    hdc.TrainConfig
}

func (su *servingSetup) close() {
	su.srv.Close()
	su.trainer.Close()
}

// setupInt8 builds the pamap2-int8 stack: a classifier trained on the host,
// compiled to int8, served by one tpu and one cpu worker on the legacy
// single-model path.
func setupInt8(p pipeline.Platform, s streams) (*servingSetup, error) {
	train, held, err := splitCatalog("PAMAP2", s, pamTrainRows, pamHeldRows)
	if err != nil {
		return nil, err
	}
	cfg := hdc.TrainConfig{Dim: dim, Epochs: int8Epochs, LearningRate: 1, Nonlinear: true, Seed: s.train}
	model, _, err := hdc.Train(train, nil, cfg)
	if err != nil {
		return nil, err
	}
	cm, err := pipeline.CompileInference(p, model, train, maxBatch)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(p, cm, serve.Config{Fleet: serve.FleetSpec{tpu.Name, hostcpu.Name}, MaxBatch: maxBatch})
	if err != nil {
		return nil, err
	}
	return &servingSetup{train: train, held: held, model: model, cm: cm, srv: srv, trainSet: train, trainCfg: cfg}, nil
}

// setupBinOnline builds the pamap2-bin-online stack: a weak initial model
// (one epoch on a small slice, so feedback produces real updates) served
// bit-packed by two bin workers from a registry, and an online trainer
// publishing snapshots into that registry.
func setupBinOnline(p pipeline.Platform, s streams) (*servingSetup, error) {
	train, held, err := splitCatalog("PAMAP2", s, pamTrainRows, pamHeldRows)
	if err != nil {
		return nil, err
	}
	cfg := hdc.TrainConfig{Dim: dim, Epochs: 1, LearningRate: 1, Nonlinear: true, Seed: s.train}
	slice := train.Subset(seq(binInitRows))
	model, _, err := hdc.Train(slice, nil, cfg)
	if err != nil {
		return nil, err
	}
	cm, err := pipeline.CompileInference(p, model, train, maxBatch)
	if err != nil {
		return nil, err
	}
	bip := model.Binarize()
	g := registry.New()
	if _, err := g.Register("main", cm, bip); err != nil {
		return nil, err
	}
	met := metrics.NewRegistry()
	// The queue holds every feedback sample a run can offer (65,536 × k
	// requests), so Offer never drops and a trainer that falls behind
	// shows as drain time inside the timed window.
	tr, err := online.New(p, g, &online.Config{Queue: feedbackBuffer, Batch: maxBatch, Binarize: true, Seed: s.online}, met)
	if err != nil {
		return nil, err
	}
	if err := tr.Attach("main", model, train); err != nil {
		return nil, err
	}
	if err := tr.Start(); err != nil {
		return nil, err
	}
	srv, err := serve.New(p, nil, serve.Config{Fleet: serve.FleetSpec{binhd.Name, binhd.Name},
		MaxBatch: maxBatch, Registry: g, Bipolar: bip, Metrics: met})
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &servingSetup{train: train, held: held, model: model, cm: cm, srv: srv,
		reg: g, trainer: tr, trainSet: slice, trainCfg: cfg}, nil
}

func seq(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// setupTimed runs build reps times, timing each, closes all but the last
// stack and returns it with the timings.
func setupTimed(reps int, build func() (*servingSetup, error)) (*servingSetup, []time.Duration, error) {
	var last *servingSetup
	var times []time.Duration
	for i := 0; i < reps; i++ {
		runtime.GC() // every set-up starts from a collected heap, untimed
		t0 := time.Now()
		su, err := build()
		if err != nil {
			if last != nil {
				last.close()
			}
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
		if last != nil {
			last.close()
		}
		last = su
	}
	return last, times, nil
}

// serveWindow runs the closed loop against su for d and, with a trainer,
// closes the trainer inside the window so queued write work is timed.
// ref, when non-nil, is the expected answer per held-out row.
func serveWindow(su *servingSetup, order, ref []int, traced bool, d time.Duration) (window, time.Duration) {
	g := &loadGen{srv: su.srv, clients: clients, x: su.held.X.F32, n: su.held.Features(),
		labels: su.held.Y, ref: ref, order: order, traced: traced}
	if su.trainer != nil {
		held := su.held
		g.onConsume = func(i, row int) {
			if sendsFeedback(i, feedbackEvery) {
				su.trainer.Offer(online.Feedback{Features: held.X.Row(row), Label: held.Y[row]})
			}
		}
	}
	// Collect set-up garbage, untimed, so every window starts from the
	// same heap.
	runtime.GC()
	m0 := readMem()
	start := time.Now()
	t := g.run(start.Add(d), 0)
	lastResponse := time.Now()
	var drain time.Duration
	if su.trainer != nil {
		su.trainer.Close()
		drain = time.Since(lastResponse)
	}
	elapsed := time.Since(start)
	return window{t: t, elapsed: elapsed, mem: memBetween(m0, readMem())}, drain
}

// runServing is the pamap2-int8 and pamap2-bin-online workload.
func runServing(e env, binOnline bool) *report {
	name, build, limit := "pamap2-int8", setupInt8, int8Limit
	if binOnline {
		name, build, limit = "pamap2-bin-online", setupBinOnline, binLimit
	}
	rep := newReport(name)
	p := pipeline.EdgeTPU()
	s := newStreams(e.seed)
	reps := servingSetups
	if e.trace {
		reps = 1
	}
	su, setups, err := setupTimed(reps, func() (*servingSetup, error) { return build(p, s) })
	if err != nil {
		rep.check(false, "setup: %v", err)
		return rep
	}
	order := requestOrder(s, su.held.Samples())

	// The offline reference: InferOnDevice over the same compiled model.
	var ref []int
	if !binOnline {
		if ref, _, err = pipeline.InferOnDevice(p, su.model, su.held, su.train, maxBatch); err != nil {
			rep.check(false, "offline reference: %v", err)
			su.close()
			return rep
		}
	}

	if !e.trace {
		w, _ := serveWindow(su, order, ref, false, e.seconds)
		su.srv.Close()
		t := w.t
		checkServing(rep, su, t)
		done := len(t.lat)
		rep.add("throughput", float64(done)/w.elapsed.Seconds(), "1/s", done)
		rep.addPercentiles("latency_p50_ms", "", t.lat, "ms")
		rep.add("goodput_frac", goodput(t.lat, t.sent, limit), "fraction", t.sent)
		rep.add("accuracy", float64(t.correct)/float64(t.sent), "fraction", t.sent)
		rep.addDur("sim_us_per_sample", t.sim/time.Duration(done), "sim_us", done)
		rep.addDur("setup_s", medianDuration(setups), "s", len(setups))
		rep.addPeakRSS()
		return rep
	}

	// Traced: plain, traced, traced, plain quarters, so drift and warm-up
	// cancel in the tracing overhead. bin-online builds a fresh stack per
	// quarter because each quarter closes its trainer inside the window.
	quarter := e.seconds / 4
	plainW, tracedW := window{t: newTally()}, window{t: newTally()}
	unchecked := newTally()
	var online online.Stats
	var drains []time.Duration
	var sr serve.ServeReport
	for k, traced := range []bool{false, true, true, false} {
		if k > 0 && binOnline {
			if su, err = build(p, s); err != nil {
				rep.check(false, "setup: %v", err)
				return rep
			}
		}
		w, drain := serveWindow(su, order, ref, traced, quarter)
		acc := &plainW
		if traced {
			acc = &tracedW
		}
		acc.t.merge(w.t)
		acc.elapsed += w.elapsed
		acc.mem = acc.mem.plus(w.mem)
		unchecked.merge(w.t)
		if binOnline {
			su.srv.Close()
			checkServing(rep, su, unchecked)
			unchecked = newTally()
			if traced {
				st := su.trainer.Stats()
				online.Feedback += st.Feedback
				online.Dropped += st.Dropped
				online.Updates += st.Updates
				online.Snapshots += st.Snapshots
				online.PublishErrors += st.PublishErrors
				drains = append(drains, drain)
				sr = su.srv.Report()
			}
		}
	}
	if !binOnline {
		su.srv.Close()
		checkServing(rep, su, unchecked)
		sr = su.srv.Report()
	}
	plainRate := float64(len(plainW.t.lat)) / plainW.elapsed.Seconds()
	tracedRate := float64(len(tracedW.t.lat)) / tracedW.elapsed.Seconds()
	rep.add("trace.overhead_pct", 100*(plainRate-tracedRate)/plainRate, "%", 4)
	rep.addPercentiles("", "latency.p99_ms", plainW.t.lat, "ms")
	addRuntime(rep, plainW.mem, tracedW.mem)
	if binOnline {
		rep.add("online.feedback", float64(online.Feedback), "count", 2)
		rep.add("online.dropped", float64(online.Dropped), "count", 2)
		rep.add("online.updates", float64(online.Updates), "count", 2)
		rep.add("online.snapshots", float64(online.Snapshots), "count", 2)
		rep.add("online.publish_errors", float64(online.PublishErrors), "count", 2)
		rep.addDur("online.drain_s", medianDuration(drains), "s", len(drains))
	}
	layerSuite(rep, &layerInputs{
		p: p, catalog: "PAMAP2", train: su.train, held: su.held, order: order, s: s,
		model: su.model, trainSet: su.trainSet, trainCfg: su.trainCfg, window: &tracedW, report: sr,
	})
	return rep
}

// checkServing applies the serving correctness checks to everything one
// server served: the report balances, every request completed, answers
// equal the reference on every worker class, traced spans add up, and the
// online trainer lost no feedback and published every snapshot it counted.
func checkServing(rep *report, su *servingSetup, t *tally) {
	sr := su.srv.Report()
	shed := sr.Shed()
	rep.attempted += t.sent
	rep.failed += t.failed
	rep.check(sr.Submitted == t.sent, "server counted %d submitted, clients sent %d", sr.Submitted, t.sent)
	rep.check(sr.Submitted == sr.Completed+sr.Failed+shed+sr.DeadlineExceeded+sr.Cancelled+sr.DrainForced,
		"unbalanced: submitted %d ≠ completed %d + failed %d + shed %d + deadline %d + cancelled %d + forced %d",
		sr.Submitted, sr.Completed, sr.Failed, shed, sr.DeadlineExceeded, sr.Cancelled, sr.DrainForced)
	rep.check(t.failed == 0, "%d of %d requests failed", t.failed, t.sent)
	rep.check(sr.Completed == len(t.lat), "server completed %d, clients saw %d", sr.Completed, len(t.lat))
	rep.check(t.badSpans == 0, "%d traced requests: queue+invoke+settle ≠ Submit latency, or server latency above it", t.badSpans)
	if su.trainer == nil {
		for _, class := range []string{tpu.Name, hostcpu.Name} {
			rep.check(t.byClass[class] > 0, "no request was served by a %s worker", class)
			rep.check(t.mismatch[class] == 0, "%d %s-served answers differ from InferOnDevice", t.mismatch[class], class)
		}
		return
	}
	st := su.trainer.Stats()
	rep.failed += int(st.Dropped + st.PublishErrors)
	rep.check(st.Dropped == 0, "online trainer dropped %d feedback samples", st.Dropped)
	rep.check(st.PublishErrors == 0, "online trainer had %d publish errors", st.PublishErrors)
	version := 0
	if e, ok := su.reg.Get("main"); ok {
		version = e.Version
	}
	rep.check(int64(version) == 1+st.Snapshots, "registry version %d after %d snapshots", version, st.Snapshots)
	rep.check(st.Snapshots > 0, "online trainer published no snapshot")
}
