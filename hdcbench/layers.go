package main

import (
	"fmt"
	"math"
	"time"

	"hdcedge/internal/backend"
	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/backend/hostcpu"
	"hdcedge/internal/backend/tpu"
	"hdcedge/internal/bagging"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/nnmap"
	"hdcedge/internal/online"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/rng"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// calibBatches is how many representative batches QuantizeForTPU runs, as
// pipeline.CompileInference does.
const calibBatches = 8

// A layer micro-measurement repeats a call until it has run this often and
// this long, and reports the mean per call.
const (
	layerMinCalls = 3
	layerMinTime  = 200 * time.Millisecond
	suiteReps     = 3 // repetitions of the costlier one-shot calls; median reported
	serveMicroReq = 1100
	replayRows    = 256
	drainRows     = 64

	runnerMinPairs = 20
	runnerMinTime  = 500 * time.Millisecond
)

// layerInputs is what the per-layer suite measures on: the workload's own
// dataset split, request order, classifier and training configuration,
// and (for serving workloads) its traced serving window.
type layerInputs struct {
	p           pipeline.Platform
	catalog     string
	train, held *dataset.Dataset
	order       []int
	s           streams
	model       *hdc.Model
	trainSet    *dataset.Dataset // what model was trained on, with trainCfg
	trainCfg    hdc.TrainConfig

	window *window           // traced serving window; nil runs a standalone one
	report serve.ServeReport // the server's report after window

	// Filled in by the suite: the model compiled at the serving batch by
	// the compile-chain step, and each backend class's standalone µs per
	// row at that batch.
	cm      *edgetpu.CompiledModel
	rowCost map[string]float64
}

// perCall runs f until it has run layerMinCalls times and for layerMinTime,
// and returns the mean wall time per call.
func perCall(f func() error) (time.Duration, int, error) {
	start := time.Now()
	calls := 0
	for calls < layerMinCalls || time.Since(start) < layerMinTime {
		if err := f(); err != nil {
			return 0, calls, err
		}
		calls++
	}
	return time.Since(start) / time.Duration(calls), calls, nil
}

// timeOnce returns how long f took.
func timeOnce(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// usPerRow converts a per-call duration over rows rows to µs per row.
func usPerRow(d time.Duration, rows int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(rows)
}

// fillRows copies the first rows held-out rows (in request order) into a
// [capacity, n] input tensor.
func fillRows(in *tensor.Tensor, held *dataset.Dataset, order []int, rows int) {
	n := held.Features()
	for r := 0; r < rows; r++ {
		copy(in.F32[r*n:(r+1)*n], held.X.Row(order[r%len(order)]))
	}
}

// addRuntime records the Go runtime's GC work over the measured windows.
func addRuntime(rep *report, ds ...memDelta) {
	var gcs uint64
	var pause time.Duration
	for _, d := range ds {
		gcs += d.gcs
		pause += d.gcPause
	}
	rep.add("runtime.gc_cycles", float64(gcs), "count", len(ds))
	rep.addDur("runtime.gc_pause_ms", pause, "ms", int(gcs))
}

// layerSuite measures every per-layer metric the traced workload did not
// already record, each by timing public calls on the workload's inputs.
func layerSuite(rep *report, in *layerInputs) {
	steps := []struct {
		name string
		run  func(*report, *layerInputs) error
	}{
		{"dataset", layerDataset},
		{"hdc", layerHDC},
		{"bagging", layerBagging},
		{"compile", layerCompile}, // sets in.cm for the layers below
		{"tflite", layerTFLite},
		{"edgetpu", layerEdgeTPU},
		{"backend", layerBackend},
		{"pipeline", layerPipeline},
		{"serve", layerServe},
		{"registry", layerRegistry},
		{"online", layerOnline},
	}
	for _, st := range steps {
		if err := st.run(rep, in); err != nil {
			rep.check(false, "layer %s: %v", st.name, err)
			return
		}
	}
}

func has(rep *report, name string) bool {
	_, ok := rep.metrics[name]
	return ok
}

func layerDataset(rep *report, in *layerInputs) error {
	spec, err := dataset.CatalogSpec(in.catalog)
	if err != nil {
		return err
	}
	rows := in.train.Samples() + in.held.Samples()
	var times []time.Duration
	for i := 0; i < suiteReps; i++ {
		d, err := timeOnce(func() error { _, err := dataset.Generate(spec, rows); return err })
		if err != nil {
			return err
		}
		times = append(times, d)
	}
	rep.addDur("dataset.generate_s", medianDuration(times), "s", len(times))
	return nil
}

func layerHDC(rep *report, in *layerInputs) error {
	cfg := in.trainCfg
	var stats *hdc.TrainStats
	d, err := timeOnce(func() error {
		var err error
		_, stats, err = hdc.Train(in.trainSet, nil, cfg)
		return err
	})
	if err != nil {
		return err
	}
	rep.addDur("hdc.train_s", d, "s", 1)

	if !has(rep, "hdc.fit_s") {
		// hdc.Train as its parts, to time FitEncoded alone.
		r := rng.New(cfg.Seed)
		enc := hdc.NewEncoder(in.trainSet.Features(), cfg.Dim, cfg.Nonlinear, r.Split())
		encoded := enc.EncodeBatch(in.trainSet.X)
		model := hdc.NewModel(enc, in.trainSet.Classes)
		var fit *hdc.TrainStats
		d, err := timeOnce(func() error {
			var err error
			fit, err = model.FitEncoded(encoded, in.trainSet.Y, nil, nil, cfg.Epochs, cfg.LearningRate, r.Split())
			return err
		})
		if err != nil {
			return err
		}
		rep.check(fit.TotalUpdates() == stats.TotalUpdates(),
			"FitEncoded made %d updates, hdc.Train %d", fit.TotalUpdates(), stats.TotalUpdates())
		rep.addDur("hdc.fit_s", d, "s", 1)
		rep.add("hdc.fit_updates", float64(fit.TotalUpdates()), "count", 1)
	}

	const encodeRows = 64
	x := in.held.Subset(in.order[:encodeRows]).X
	d, calls, err := perCall(func() error { in.model.Encoder.EncodeBatch(x); return nil })
	if err != nil {
		return err
	}
	rep.add("hdc.encode_us_per_row", usPerRow(d, encodeRows), "us", calls)

	// AdaptOnline replayed on the workload's feedback stream.
	clone := in.model.Clone()
	scratch := clone.NewAdaptScratch()
	rows := feedbackRows(in.order, feedbackEvery, replayRows)
	next := 0
	d, calls, err = perCall(func() error {
		row := rows[next%len(rows)]
		next++
		clone.AdaptOnline(scratch, in.held.X.Row(row), in.held.Y[row], hdc.OnlineConfig{})
		return nil
	})
	if err != nil {
		return err
	}
	rep.add("hdc.adapt_us", usPerRow(d, 1), "us", calls)
	return nil
}

func layerBagging(rep *report, in *layerInputs) error {
	if has(rep, "bagging.train_s") {
		return nil
	}
	var st *bagging.Stats
	d, err := timeOnce(func() error {
		var err error
		_, st, err = bagging.Train(in.train, uciBagging(in.s.bag))
		return err
	})
	if err != nil {
		return err
	}
	rep.addDur("bagging.train_s", d, "s", 1)
	rep.add("bagging.updates", float64(st.TotalUpdates()), "count", 1)
	return nil
}

func layerCompile(rep *report, in *layerInputs) error {
	var build, quant, comp []time.Duration
	for i := 0; i < suiteReps; i++ {
		t0 := time.Now()
		fm, err := nnmap.BuildInferenceModel(in.model, maxBatch)
		if err != nil {
			return err
		}
		t1 := time.Now()
		qm, err := nnmap.QuantizeForTPU(fm, in.train, maxBatch, calibBatches)
		if err != nil {
			return err
		}
		t2 := time.Now()
		cm, err := edgetpu.Compile(qm, *in.p.Accel)
		if err != nil {
			return err
		}
		comp = append(comp, time.Since(t2))
		build, quant = append(build, t1.Sub(t0)), append(quant, t2.Sub(t1))
		in.cm = cm
	}
	rep.addDur("nnmap.build_ms", medianDuration(build), "ms", suiteReps)
	rep.addDur("tflite.quantize_ms", medianDuration(quant), "ms", suiteReps)
	rep.addDur("edgetpu.compile_ms", medianDuration(comp), "ms", suiteReps)
	return nil
}

// opNames names the compiled inference graph's operators: QUANTIZE, the
// encoding FC, TANH, the similarity FC and ARG_MAX. Other ops get no name.
func opNames(m *tflite.Model) map[int]string {
	names := map[int]string{}
	fcs := 0
	for i, op := range m.Operators {
		switch op.Op {
		case tflite.OpQuantize:
			names[i] = "quantize"
		case tflite.OpTanh:
			names[i] = "tanh"
		case tflite.OpArgMax:
			names[i] = "argmax"
		case tflite.OpFullyConnected:
			names[i] = []string{"fc_encode", "fc_similarity"}[min(fcs, 1)]
			fcs++
		}
	}
	return names
}

func layerTFLite(rep *report, in *layerInputs) error {
	it, err := tflite.NewInterpreter(in.cm.Model)
	if err != nil {
		return err
	}
	fillRows(it.Input(0), in.held, in.order, maxBatch)
	if err := it.Invoke(); err != nil {
		return err
	}
	names := opNames(in.cm.Model)
	for _, rows := range []int{1, maxBatch} {
		for i := range in.cm.Model.Operators {
			name, ok := names[i]
			if !ok {
				continue
			}
			d, calls, err := perCall(func() error { return it.InvokeOpRows(i, rows) })
			if err != nil {
				return err
			}
			rep.add(fmt.Sprintf("tflite.op.%s.r%d.us_per_row", name, rows), usPerRow(d, rows), "us", calls)
			if name == "fc_encode" && rows == maxBatch {
				n, dm := in.model.Encoder.Features(), in.model.Dim()
				macs := float64(rows * n * dm)
				rep.add("tflite.fc_encode.gmacs_per_s", macs/d.Seconds()/1e9, "GMAC/s", calls)
				// int8 weights and int32 bias, shared by the batch, plus
				// each row's int8 input and output.
				bytes := float64(dm*n+4*dm)/float64(rows) + float64(n+dm)
				rep.add("tflite.fc_encode.bytes_per_row", bytes, "B", 1)
			}
		}
	}
	return nil
}

func layerEdgeTPU(rep *report, in *layerInputs) error {
	it, err := tflite.NewInterpreter(in.cm.Model)
	if err != nil {
		return err
	}
	fillRows(it.Input(0), in.held, in.order, maxBatch)
	if err := it.Invoke(); err != nil {
		return err
	}
	cfg := *in.p.Accel
	arr := edgetpu.Array{Rows: cfg.MXURows, Cols: cfg.MXUCols}
	for i, name := range opNames(in.cm.Model) {
		if name != "fc_encode" && name != "fc_similarity" {
			continue
		}
		op := in.cm.Model.Operators[i]
		fin, w, b, out := it.Tensor(op.Inputs[0]), it.Tensor(op.Inputs[1]), it.Tensor(op.Inputs[2]), it.Tensor(op.Outputs[0])
		d, calls, err := perCall(func() error { _, err := arr.RunFullyConnected(fin, w, b, out); return err })
		if err != nil {
			return err
		}
		rep.add("edgetpu."+name+".us_per_row", usPerRow(d, maxBatch), "us", calls)
	}

	dev := edgetpu.NewDevice(cfg)
	if _, err := dev.LoadModel(in.cm); err != nil {
		return err
	}
	fillRows(dev.Input(0), in.held, in.order, maxBatch)
	for _, rows := range []int{1, maxBatch} {
		d, calls, err := perCall(func() error { _, err := dev.InvokeBatch(rows); return err })
		if err != nil {
			return err
		}
		rep.add(fmt.Sprintf("edgetpu.invoke.r%d.us_per_row", rows), usPerRow(d, rows), "us", calls)
	}
	t, _, err := dev.InvokeProfiled()
	if err != nil {
		return err
	}
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"host", t.Host}, {"transfer_in", t.TransferIn}, {"compute", t.Compute},
		{"host_fallback", t.HostFallback}, {"transfer_out", t.TransferOut}} {
		rep.addDur("edgetpu.sim."+ph.name+"_us", ph.d, "sim_us", 1)
	}
	rep.add("edgetpu.macs_per_row", float64(t.MACs)/maxBatch, "count", 1)
	allocs, err := allocsPer(20, func() error { _, err := dev.Invoke(); return err })
	if err != nil {
		return err
	}
	rep.add("edgetpu.allocs_per_invoke", allocs, "count", 20)
	return nil
}

// allocsPer returns the heap allocations per call of f over calls calls.
func allocsPer(calls int, f func() error) (float64, error) {
	m0 := readMem()
	for i := 0; i < calls; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(readMem().Mallocs-m0.Mallocs) / float64(calls), nil
}

func layerBackend(rep *report, in *layerInputs) error {
	in.rowCost = map[string]float64{}
	tb, err := tpu.New(*in.p.Accel, in.cm, edgetpu.FaultPlan{})
	if err != nil {
		return err
	}
	cb, err := hostcpu.New(in.p.Host, in.cm.Model)
	if err != nil {
		return err
	}
	bb, err := binhd.New(in.p.Host, in.model.Binarize(), maxBatch)
	if err != nil {
		return err
	}
	for _, b := range []backend.Backend{tb, cb, bb} {
		fillRows(b.Input(0), in.held, in.order, maxBatch)
		for _, rows := range []int{1, maxBatch} {
			d, calls, err := perCall(func() error { _, err := b.InvokeBatch(rows); return err })
			if err != nil {
				return err
			}
			rep.add(fmt.Sprintf("backend.%s.r%d.invoke_us_per_row", b.Name(), rows), usPerRow(d, rows), "us", calls)
			if rows == maxBatch {
				in.rowCost[b.Name()] = usPerRow(d, rows)
			}
		}
	}
	allocs, err := allocsPer(20, func() error { _, err := bb.InvokeBatch(maxBatch); return err })
	if err != nil {
		return err
	}
	rep.add("backend.bin.allocs_per_invoke", allocs, "count", 20)
	return nil
}

func layerPipeline(rep *report, in *layerInputs) error {
	if !has(rep, "pipeline.encode_on_device_s") {
		d, err := timeOnce(func() error {
			_, _, err := pipeline.EncodeOnDevice(in.p, in.model.Encoder, in.train, pipeline.DefaultBatch)
			return err
		})
		if err != nil {
			return err
		}
		rep.addDur("pipeline.encode_on_device_s", d, "s", 1)
	}

	// The resilient runner against the bare backend it wraps, one
	// single-row call of each in turn, so drifting contention hits both
	// sides alike and cancels in the difference.
	runner, err := pipeline.NewResilientRunner(in.p, in.cm, edgetpu.FaultPlan{}, pipeline.DefaultRecoveryPolicy())
	if err != nil {
		return err
	}
	bare, err := tpu.New(*in.p.Accel, in.cm, edgetpu.FaultPlan{})
	if err != nil {
		return err
	}
	fill := func(t *tensor.Tensor) { fillRows(t, in.held, in.order, 1) }
	var withRunner, without time.Duration
	pairs := 0
	for start := time.Now(); pairs < runnerMinPairs || time.Since(start) < runnerMinTime; pairs++ {
		t0 := time.Now()
		if _, err := runner.InvokeBatch(1, fill); err != nil {
			return err
		}
		t1 := time.Now()
		fill(bare.Input(0))
		if _, err := bare.InvokeBatch(1); err != nil {
			return err
		}
		withRunner, without = withRunner+t1.Sub(t0), without+time.Since(t1)
	}
	rep.addDur("pipeline.runner_overhead_us", (withRunner-without)/time.Duration(pairs), "us", pairs)
	rel := runner.Report()
	if in.window != nil {
		rel = in.report.Reliability
	}
	rep.add("pipeline.retries", float64(rel.Retries), "count", 1)
	rep.add("pipeline.fallbacks", float64(rel.FallbackInvokes), "count", 1)
	rep.check(rel.Retries == 0 && rel.FallbackInvokes == 0, "healthy device retried %d and fell back %d times", rel.Retries, rel.FallbackInvokes)
	return nil
}

func layerServe(rep *report, in *layerInputs) error {
	if in.window == nil {
		// No serving in the workload: serve its model on the pamap2-int8
		// fleet for a fixed number of traced requests.
		srv, err := serve.New(in.p, in.cm, serve.Config{Fleet: serve.FleetSpec{tpu.Name, hostcpu.Name}, MaxBatch: maxBatch})
		if err != nil {
			return err
		}
		g := &loadGen{srv: srv, clients: clients, x: in.held.X.F32, n: in.held.Features(),
			labels: in.held.Y, order: in.order, traced: true}
		m0 := readMem()
		start := time.Now()
		t := g.run(time.Time{}, serveMicroReq)
		w := window{t: t, elapsed: time.Since(start), mem: memBetween(m0, readMem())}
		srv.Close()
		in.window, in.report = &w, srv.Report()
		rep.check(t.failed == 0 && t.badSpans == 0, "standalone serving: %d failed, %d traced spans do not add up", t.failed, t.badSpans)
	}
	w, t := in.window, in.window.t
	rep.addPercentiles("serve.queue_ms.p50", "serve.queue_ms.p99", t.queue, "ms")
	rep.addPercentiles("serve.invoke_ms.p50", "", t.invoke, "ms")
	rep.addPercentiles("serve.settle_us.p50", "", t.settle, "us")
	rep.add("serve.batch_rows.mean", in.report.MeanOccupancy(), "rows", in.report.BatchInvokes)
	done := len(t.lat)
	// Worker time per request beyond what the backends cost standalone.
	kernel := 0.0
	for class, n := range t.byClass {
		kernel += in.rowCost[class] * float64(n) / float64(done)
	}
	workerUS := float64(workers) * float64(w.elapsed) / float64(time.Microsecond) / float64(done)
	rep.add("serve.overhead_us_per_req", workerUS-kernel, "us", done)
	rep.add("serve.allocs_per_req", float64(w.mem.mallocs)/float64(t.sent), "count", t.sent)
	rep.add("serve.shed", float64(in.report.Shed()), "count", 1)
	rep.add("serve.failed", float64(in.report.Failed), "count", 1)
	for _, class := range []string{tpu.Name, hostcpu.Name} {
		rep.add("backend."+class+".requests", float64(t.byClass[class])/float64(done), "fraction", done)
	}
	// A bind that missed (device memory) or rebound a new version (host
	// workers) bills its re-setup to one invoke, shared by the invoke's
	// batch, so the sum of 1/batch over billed requests counts those binds.
	rep.add("registry.misses", math.Round(t.rebinds), "count", done)
	rep.addDur("registry.swap_billed_ms", t.swap, "sim_ms", done)
	return nil
}

func layerRegistry(rep *report, in *layerInputs) error {
	g := registry.New()
	bip := in.model.Binarize()
	if _, err := g.Register("m", in.cm, bip); err != nil {
		return err
	}
	d, calls, err := perCall(func() error { _, err := g.Swap("m", in.cm, bip); return err })
	if err != nil {
		return err
	}
	rep.add("registry.swap_us", usPerRow(d, 1), "us", calls)
	return nil
}

func layerOnline(rep *report, in *layerInputs) error {
	// One snapshot publication as the trainer performs it.
	g := registry.New()
	if _, err := g.Register("m", in.cm, in.model.Binarize()); err != nil {
		return err
	}
	var pubs []time.Duration
	for i := 0; i < suiteReps; i++ {
		d, err := timeOnce(func() error {
			snap := in.model.Clone()
			cm, err := pipeline.CompileInference(in.p, snap, in.train, maxBatch)
			if err != nil {
				return err
			}
			_, err = g.Swap("m", cm, snap.Binarize())
			return err
		})
		if err != nil {
			return err
		}
		pubs = append(pubs, d)
	}
	rep.addDur("online.publish_ms", medianDuration(pubs), "ms", len(pubs))
	if has(rep, "online.drain_s") {
		return nil
	}

	// No trainer in the workload: offer a trainer the head of the
	// feedback stream at once and time how long Close takes to drain it.
	tr, err := online.New(in.p, g, &online.Config{Queue: drainRows, Batch: maxBatch, Binarize: true, Seed: in.s.online}, metrics.NewRegistry())
	if err != nil {
		return err
	}
	if err := tr.Attach("m", in.model, in.train); err != nil {
		return err
	}
	if err := tr.Start(); err != nil {
		return err
	}
	for _, row := range feedbackRows(in.order, feedbackEvery, drainRows) {
		tr.Offer(online.Feedback{Features: in.held.X.Row(row), Label: in.held.Y[row]})
	}
	d, _ := timeOnce(func() error { tr.Close(); return nil })
	st := tr.Stats()
	rep.add("online.feedback", float64(st.Feedback), "count", 1)
	rep.add("online.dropped", float64(st.Dropped), "count", 1)
	rep.add("online.updates", float64(st.Updates), "count", 1)
	rep.add("online.snapshots", float64(st.Snapshots), "count", 1)
	rep.add("online.publish_errors", float64(st.PublishErrors), "count", 1)
	rep.addDur("online.drain_s", d, "s", 1)
	rep.check(st.Dropped == 0 && st.PublishErrors == 0, "standalone trainer dropped %d, publish errors %d", st.Dropped, st.PublishErrors)
	return nil
}
