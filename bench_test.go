package hdcedge

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md's per-experiment index). Each benchmark
// regenerates its artifact and reports the paper's headline quantity as a
// custom metric, so `go test -bench=.` reproduces the whole evaluation.
//
// Functional benchmarks (Fig 4, 7, 8, 9 and the accuracy ablations) run at
// a reduced scale set by benchCfg; runtime benchmarks model the full
// Table I scale.

import (
	"testing"

	"hdcedge/internal/experiments"
	"hdcedge/internal/metrics"
)

// benchCfg keeps functional artifact regeneration at benchmark-friendly
// scale while preserving the paper's qualitative results.
func benchCfg() experiments.Config {
	return experiments.Config{
		FunctionalSamples: 1000,
		FunctionalDim:     1024,
		Epochs:            10,
		Seed:              7,
	}
}

// runtimeCfg uses the paper's 20-iteration schedule for runtime models.
func runtimeCfg() experiments.Config {
	cfg := benchCfg()
	cfg.Epochs = 20
	return cfg
}

func BenchmarkTableI_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

func BenchmarkFig4_TrainingCurve(b *testing.B) {
	cfg := benchCfg()
	var finalVal float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		finalVal = 0
		for _, s := range series {
			finalVal += s.ValidationAccuracy[len(s.ValidationAccuracy)-1]
		}
		finalVal /= float64(len(series))
	}
	b.ReportMetric(finalVal, "mean-final-val-acc")
}

func BenchmarkFig5_TrainingRuntime(b *testing.B) {
	cfg := runtimeCfg()
	var mnistSpeedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "MNIST" {
				mnistSpeedup = metrics.Speedup(r.CPU.Total(), r.TPUB.Total())
			}
		}
	}
	// Paper: 4.49x on MNIST.
	b.ReportMetric(mnistSpeedup, "mnist-train-speedup")
}

func BenchmarkFig6_InferenceRuntime(b *testing.B) {
	cfg := runtimeCfg()
	var mnistSpeedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "MNIST" {
				mnistSpeedup = r.Speedup()
			}
		}
	}
	// Paper: 4.19x on MNIST.
	b.ReportMetric(mnistSpeedup, "mnist-inf-speedup")
}

func BenchmarkFig7_Accuracy(b *testing.B) {
	cfg := benchCfg()
	var worstDrop float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worstDrop = 0
		for _, r := range rows {
			if d := r.CPU - r.TPU; d > worstDrop {
				worstDrop = d
			}
		}
	}
	// Paper: quantized accuracy within ~a point of float.
	b.ReportMetric(100*worstDrop, "worst-tpu-acc-drop-pts")
}

func BenchmarkTableII_RaspberryPi(b *testing.B) {
	cfg := runtimeCfg()
	var meanTrain, meanInf float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		meanTrain, meanInf = experiments.MeanSpeedups(rows)
	}
	// Paper: 19.4x training, 8.9x inference on average.
	b.ReportMetric(meanTrain, "mean-train-speedup")
	b.ReportMetric(meanInf, "mean-inf-speedup")
}

func BenchmarkFig8_RatioSearch(b *testing.B) {
	cfg := benchCfg()
	var alpha06Runtime float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.DatasetRatio == 0.6 && p.FeatureRatio == 1.0 {
				alpha06Runtime = p.Normalized
			}
		}
	}
	// Paper: α=0.6 needs ~70% of full-data training time.
	b.ReportMetric(alpha06Runtime, "alpha0.6-norm-runtime")
}

func BenchmarkFig9_Iterations(b *testing.B) {
	cfg := benchCfg()
	var sixIterRuntime float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Iterations == 6 {
				sixIterRuntime = p.Normalized
			}
		}
	}
	// Paper: 4-6 iterations save ~20% vs 8.
	b.ReportMetric(sixIterRuntime, "iters6-norm-update")
}

func BenchmarkFig10_FeatureSweep(b *testing.B) {
	cfg := runtimeCfg()
	var low, high float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		low = points[0].Speedup
		high = points[len(points)-1].Speedup
	}
	// Paper: 1.06x at n=20, 8.25x at n=700.
	b.ReportMetric(low, "n20-speedup")
	b.ReportMetric(high, "n700-speedup")
}

func BenchmarkAblation_Model(b *testing.B) {
	cfg := benchCfg()
	var overLinear, onlineGap, bipolarDrop, overIDLevel float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationModel(cfg)
		if err != nil {
			b.Fatal(err)
		}
		overLinear, onlineGap, bipolarDrop, overIDLevel = 0, 0, 0, 0
		for _, r := range rows {
			overLinear += r.Tanh - r.Linear
			onlineGap += r.Tanh - r.OnlineOne
			bipolarDrop += r.Tanh - r.Bipolar
			overIDLevel += r.Tanh - r.IDLevel
		}
		n := float64(len(rows))
		overLinear, onlineGap, bipolarDrop, overIDLevel = overLinear/n, onlineGap/n, bipolarDrop/n, overIDLevel/n
	}
	b.ReportMetric(100*overLinear, "tanh-vs-linear-pts")
	b.ReportMetric(100*onlineGap, "iterative-minus-1pass-pts")
	b.ReportMetric(100*bipolarDrop, "bipolar-acc-drop-pts")
	b.ReportMetric(100*overIDLevel, "projection-vs-idlevel-pts")
}

func BenchmarkAblation_FusedVsSerial(b *testing.B) {
	cfg := runtimeCfg()
	var meanOverhead float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationFusedVsSerial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		meanOverhead = 0
		for _, r := range rows {
			meanOverhead += r.Overhead
		}
		meanOverhead /= float64(len(rows))
	}
	b.ReportMetric(meanOverhead, "serial-overhead-x")
}

func BenchmarkAblation_SubWidth(b *testing.B) {
	cfg := benchCfg()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSubWidth(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(rows[1].UpdateTime) / float64(rows[0].UpdateTime)
	}
	b.ReportMetric(ratio, "fullwidth-update-cost-x")
}

func BenchmarkAblation_Batch(b *testing.B) {
	cfg := runtimeCfg()
	var batch1Penalty float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationBatch(cfg)
		if err != nil {
			b.Fatal(err)
		}
		batch1Penalty = points[0].RelativeTo32
	}
	b.ReportMetric(batch1Penalty, "batch1-vs-32-x")
}

func BenchmarkTableEnergy(b *testing.B) {
	cfg := runtimeCfg()
	var meanTrainGain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableEnergy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		meanTrainGain = 0
		for _, r := range rows {
			meanTrainGain += r.TrainEnergyGainVsPi()
		}
		meanTrainGain /= float64(len(rows))
	}
	b.ReportMetric(meanTrainGain, "mean-train-energy-gain-vs-pi")
}

func BenchmarkAblation_Robustness(b *testing.B) {
	cfg := benchCfg()
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRobustness(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Robustness gap at 20% corruption between large and small d.
		gap = res.CorruptLargeD[3].Accuracy - res.CorruptSmallD[3].Accuracy
	}
	b.ReportMetric(100*gap, "large-d-robustness-gap-pts")
}

func BenchmarkAblation_Link(b *testing.B) {
	cfg := runtimeCfg()
	var pamap2Gain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationLink(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "PAMAP2" {
				pamap2Gain = r.Gain
			}
		}
	}
	b.ReportMetric(pamap2Gain, "pamap2-pcie-gain-x")
}

func BenchmarkAblation_Dim(b *testing.B) {
	cfg := benchCfg()
	var bestAcc float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationDim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bestAcc = 0
		for _, p := range points {
			if p.Accuracy > bestAcc {
				bestAcc = p.Accuracy
			}
		}
	}
	b.ReportMetric(bestAcc, "best-dim-accuracy")
}

func BenchmarkAblation_Overlap(b *testing.B) {
	cfg := runtimeCfg()
	var mnistGain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationOverlap(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "MNIST" {
				mnistGain = r.Gain
			}
		}
	}
	b.ReportMetric(mnistGain, "mnist-overlap-gain-x")
}

func BenchmarkAblation_ScaleOut(b *testing.B) {
	cfg := runtimeCfg()
	var pcieGain float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationScaleOut(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Link == "edgetpu-pcie" && p.Devices == 8 {
				pcieGain = p.Speedup
			}
		}
	}
	b.ReportMetric(pcieGain, "pcie-8dev-gain-x")
}
