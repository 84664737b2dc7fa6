package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"hdcedge/internal/bagging"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/rng"
)

// The ucihar-train shape: the paper's Fig-5 flow on UCIHAR (n=561, k=12)
// at d=10,000. 512 held-out rows per flow and at least two flows give
// 1,024 query latencies, enough for the traced run's p99 with ten samples
// above it.
const (
	uciTrainRows    = 600
	uciHeldRows     = 512
	uciEpochs       = 20
	uciMinFlows     = 2
	uciSetupReps    = 15
	uciLatencyLimit = 40 * time.Millisecond
)

// uciBagging is the paper's bagging operating point: M=4 sub-models of
// d'=2,500, I'=6 iterations, α=0.6 bootstrap ratio, no feature sampling.
func uciBagging(seed uint64) bagging.Config {
	return bagging.Config{SubModels: 4, Dim: dim, Iterations: 6, DatasetRatio: 0.6,
		FeatureRatio: 1, LearningRate: 1, Nonlinear: true, Seed: seed}
}

func uciTrainConfig(seed uint64) hdc.TrainConfig {
	return hdc.TrainConfig{Dim: dim, Epochs: uciEpochs, LearningRate: 1, Nonlinear: true, Seed: seed}
}

// uciFlow is one execution of the timed flow and everything it produced.
type uciFlow struct {
	wall       time.Duration
	accuracy   float64
	fitUpdates int
	bagUpdates int
	sim        time.Duration   // simulated clock of the whole flow
	preds      []int           // InferOnDevice predictions per held-out row
	lat        []time.Duration // per-query latency of the deployed model
	mismatches int             // queries whose answer differs from InferOnDevice

	// Spans of the traced flow's training steps (zero in a plain flow).
	encodeOnDevice, fit, bag time.Duration
	fused                    *hdc.Model
}

// runUCIFlow runs the Fig-5 flow once:
//  1. co-design training: the encoder is compiled to int8, encodes the
//     training set on the simulated TPU, and FitEncoded trains the class
//     hypervectors on the host (pipeline.TrainOnDevice);
//  2. bagging at the paper's operating point, fused into one model;
//  3. pipeline.InferOnDevice of the fused model on the held-out rows;
//  4. deployment: the fused model is compiled once and answers each
//     held-out row as its own single-row device query, in request order.
//
// A traced flow runs step 1 as its public parts (EncodeOnDevice, then
// FitEncoded with the same seed splits) so each can be timed; it must
// reproduce TrainOnDevice exactly.
func runUCIFlow(p pipeline.Platform, train, held *dataset.Dataset, order []int, s streams, traced bool) (*uciFlow, error) {
	f := &uciFlow{}
	cfg := uciTrainConfig(s.train)
	start := time.Now()

	var stats *hdc.TrainStats
	var encTiming edgetpu.Timing
	if traced {
		r := rng.New(cfg.Seed)
		enc := hdc.NewEncoder(train.Features(), cfg.Dim, cfg.Nonlinear, r.Split())
		t0 := time.Now()
		encoded, timing, err := pipeline.EncodeOnDevice(p, enc, train, pipeline.DefaultBatch)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		model := hdc.NewModel(enc, train.Classes)
		if stats, err = model.FitEncoded(encoded, train.Y, nil, nil, cfg.Epochs, cfg.LearningRate, r.Split()); err != nil {
			return nil, err
		}
		f.encodeOnDevice, f.fit = t1.Sub(t0), time.Since(t1)
		encTiming = timing
	} else {
		fr, err := pipeline.TrainOnDevice(p, train, cfg)
		if err != nil {
			return nil, err
		}
		stats, encTiming = fr.Stats, fr.DeviceTime
	}
	f.fitUpdates = stats.TotalUpdates()

	t0 := time.Now()
	ens, bst, err := bagging.Train(train, uciBagging(s.bag))
	if err != nil {
		return nil, err
	}
	fused := ens.Fuse()
	f.bag, f.bagUpdates, f.fused = time.Since(t0), bst.TotalUpdates(), fused

	preds, inferTiming, err := pipeline.InferOnDevice(p, fused, held, train, maxBatch)
	if err != nil {
		return nil, err
	}
	f.preds = preds
	correct := 0
	for i, pr := range preds {
		if pr == held.Y[i] {
			correct++
		}
	}
	f.accuracy = float64(correct) / float64(len(preds))

	cm, err := pipeline.CompileInference(p, fused, train, maxBatch)
	if err != nil {
		return nil, err
	}
	dev := edgetpu.NewDevice(*p.Accel)
	if _, err := dev.LoadModel(cm); err != nil {
		return nil, err
	}
	n := held.Features()
	var queryTiming edgetpu.Timing
	f.lat = make([]time.Duration, 0, len(order))
	for _, row := range order {
		q0 := time.Now()
		copy(dev.Input(0).F32[:n], held.X.Row(row))
		t, err := dev.InvokeBatch(1)
		if err != nil {
			return nil, fmt.Errorf("query row %d: %w", row, err)
		}
		pred := int(dev.Output(0).I32[0])
		f.lat = append(f.lat, time.Since(q0))
		queryTiming.Add(t)
		if pred != preds[row] {
			f.mismatches++
		}
	}
	f.wall = time.Since(start)

	// The simulated clock: device encode, the host class-hypervector
	// update priced by the cost model from the measured update count (the
	// Fig-5 split), device inference and the deployed queries.
	w := pipeline.FromSpec(dataset.Spec{Name: "UCIHAR", Samples: train.Samples() + held.Samples(),
		Features: train.Features(), Classes: train.Classes}, cfg.Epochs)
	w.TrainSamples, w.TestSamples = train.Samples(), held.Samples()
	host, err := pipeline.CPUTraining(p.Host, w.WithMeasuredUpdates(stats, train.Samples()))
	if err != nil {
		return nil, err
	}
	f.sim = encTiming.Total() + host.Update + inferTiming.Total() + queryTiming.Total()
	return f, nil
}

// runUCIHARTrain is the ucihar-train workload. Untraced, it repeats the
// flow on identical inputs until the measuring time is spent (at least
// twice) and reports training rows per second over all flows. Traced, it
// runs one plain flow and one traced flow, then the per-layer suite.
func runUCIHARTrain(e env) *report {
	rep := newReport("ucihar-train")
	p := pipeline.EdgeTPU()
	s := newStreams(e.seed)

	var train, held *dataset.Dataset
	var setups []time.Duration
	for i := 0; i < uciSetupReps; i++ {
		runtime.GC() // every set-up starts from a collected heap, untimed
		t0 := time.Now()
		tr, te, err := splitCatalog("UCIHAR", s, uciTrainRows, uciHeldRows)
		if err != nil {
			rep.check(false, "setup: %v", err)
			return rep
		}
		setups = append(setups, time.Since(t0))
		train, held = tr, te
	}
	order := requestOrder(s, held.Samples())

	var flows []*uciFlow
	var mem memDelta
	start := time.Now()
	for len(flows) < uciMinFlows || (!e.trace && time.Since(start) < e.seconds) {
		// Each flow starts from a collected heap, untimed, so one flow's
		// garbage neither slows the next nor stacks up in peak RSS.
		runtime.GC()
		m0 := readMem()
		f, err := runUCIFlow(p, train, held, order, s, e.trace && len(flows) > 0)
		if err != nil {
			rep.check(false, "flow %d: %v", len(flows), err)
			return rep
		}
		mem = mem.plus(memBetween(m0, readMem()))
		flows = append(flows, f)
	}

	var lat []time.Duration
	var wall time.Duration
	first := flows[0]
	for i, f := range flows {
		lat = append(lat, f.lat...)
		wall += f.wall
		rep.check(f.mismatches == 0, "flow %d: %d deployed queries disagree with InferOnDevice", i, f.mismatches)
		rep.check(f.accuracy == first.accuracy && f.fitUpdates == first.fitUpdates &&
			f.bagUpdates == first.bagUpdates && f.sim == first.sim && slices.Equal(f.preds, first.preds),
			"flow %d does not repeat flow 0 exactly: accuracy %v/%v, fit updates %d/%d, bagging updates %d/%d, sim %v/%v",
			i, f.accuracy, first.accuracy, f.fitUpdates, first.fitUpdates, f.bagUpdates, first.bagUpdates, f.sim, first.sim)
	}
	rep.attempted = len(lat)
	rows := float64(len(flows) * train.Samples())
	if !e.trace {
		rep.add("throughput", rows/wall.Seconds(), "1/s", len(flows))
		rep.addPercentiles("latency_p50_ms", "", lat, "ms")
		rep.add("goodput_frac", goodput(lat, rep.attempted, uciLatencyLimit), "fraction", rep.attempted)
		rep.add("accuracy", first.accuracy, "fraction", held.Samples())
		deviceRows := train.Samples() + 2*held.Samples()
		rep.add("sim_us_per_sample", float64(first.sim)/float64(deviceRows)/1e3, "sim_us", deviceRows)
		rep.addDur("setup_s", medianDuration(setups), "s", len(setups))
		rep.addPeakRSS()
		return rep
	}

	tf := flows[1]
	rep.addDur("pipeline.encode_on_device_s", tf.encodeOnDevice, "s", 1)
	rep.addDur("hdc.fit_s", tf.fit, "s", 1)
	rep.add("hdc.fit_updates", float64(tf.fitUpdates), "count", 1)
	rep.addDur("bagging.train_s", tf.bag, "s", 1)
	rep.add("bagging.updates", float64(tf.bagUpdates), "count", 1)
	rep.add("trace.overhead_pct", 100*(tf.wall.Seconds()-first.wall.Seconds())/first.wall.Seconds(), "%", 2)
	rep.addPercentiles("", "latency.p99_ms", lat, "ms")
	addRuntime(rep, mem)
	layerSuite(rep, &layerInputs{
		p: p, catalog: "UCIHAR", train: train, held: held, order: order, s: s,
		model: tf.fused, trainSet: train, trainCfg: uciTrainConfig(s.train),
	})
	return rep
}
