package experiments

import (
	"bytes"
	"strings"
	"testing"

	"hdcedge/internal/metrics"
)

// fastCfg keeps functional experiment tests quick while preserving the
// qualitative shapes the assertions check.
func fastCfg() Config {
	return Config{FunctionalSamples: 900, FunctionalDim: 768, Epochs: 8, Seed: 7}
}

// skipLongUnderRace exempts the multi-second functional sweeps from
// race-detector runs: they are single-goroutine arithmetic that the
// detector slows by an order of magnitude without gaining coverage (the
// concurrent code they drive is race-tested in its own packages), and
// together they would blow the per-package test timeout on small machines.
func skipLongUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("long functional sweep; skipped under the race detector")
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Name != "FACE" || rows[0].Samples != 80854 {
		t.Fatalf("first row %+v", rows[0])
	}
	if rows[4].Name != "PAMAP2" || rows[4].Features != 27 {
		t.Fatalf("last row %+v", rows[4])
	}
	var buf bytes.Buffer
	RenderTableI(&buf, rows)
	if !strings.Contains(buf.String(), "ISOLET") {
		t.Fatal("render missing dataset")
	}
}

func TestFig4CurvesImprove(t *testing.T) {
	skipLongUnderRace(t)
	series, err := Fig4(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		last := len(s.TrainAccuracy) - 1
		if s.TrainAccuracy[last] <= s.TrainAccuracy[0] {
			t.Errorf("%s: training accuracy flat or falling (%.3f -> %.3f)",
				s.Dataset, s.TrainAccuracy[0], s.TrainAccuracy[last])
		}
		if s.ValidationAccuracy[last] < 0.5 {
			t.Errorf("%s: final validation accuracy %.3f too low", s.Dataset, s.ValidationAccuracy[last])
		}
		if len(s.UpdateFracs) != len(s.TrainAccuracy) {
			t.Errorf("%s: update fracs length mismatch", s.Dataset)
		}
	}
	var buf bytes.Buffer
	RenderFig4(&buf, series)
	if !strings.Contains(buf.String(), "valid:") {
		t.Fatal("render missing validation row")
	}
}

func TestFig5Shapes(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 20 // runtime model uses the paper's schedule
	rows, err := Fig5(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Dataset == "PAMAP2" {
			if s := metrics.Speedup(r.CPU.Encode, r.TPU.Encode); s > 1.5 {
				t.Errorf("PAMAP2 encode speedup %.2f; paper shows ~1x", s)
			}
			continue
		}
		if s := metrics.Speedup(r.CPU.Total(), r.TPUB.Total()); s < 1.5 {
			t.Errorf("%s: bagging training speedup %.2f too small", r.Dataset, s)
		}
		if r.TPUB.Total() >= r.TPU.Total() {
			t.Errorf("%s: TPU_B (%v) not faster than TPU (%v)", r.Dataset, r.TPUB.Total(), r.TPU.Total())
		}
		if s := metrics.Speedup(r.CPU.Encode, r.TPU.Encode); s < 3 {
			t.Errorf("%s: encode speedup %.2f too small", r.Dataset, s)
		}
	}
	// MNIST is the paper's best case (4.49x).
	for _, r := range rows {
		if r.Dataset == "MNIST" {
			if s := metrics.Speedup(r.CPU.Total(), r.TPUB.Total()); s < 3 || s > 7 {
				t.Errorf("MNIST bagging speedup %.2f outside [3,7] (paper: 4.49)", s)
			}
		}
	}
	var buf bytes.Buffer
	RenderFig5(&buf, rows)
	if !strings.Contains(buf.String(), "TPU_B") {
		t.Fatal("render missing TPU_B rows")
	}
}

func TestFig6Shapes(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 20
	rows, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TPU != r.TPUB {
			t.Errorf("%s: fused bagging model must cost the same as the full model", r.Dataset)
		}
		if r.Dataset == "PAMAP2" {
			if s := r.Speedup(); s > 1.3 {
				t.Errorf("PAMAP2 inference speedup %.2f; paper shows a regression", s)
			}
		} else if s := r.Speedup(); s < 2 || s > 6 {
			t.Errorf("%s: inference speedup %.2f outside [2,6] (paper: 2.1-4.2)", r.Dataset, s)
		}
	}
	var buf bytes.Buffer
	RenderFig6(&buf, rows)
	if !strings.Contains(buf.String(), "Speedup") {
		t.Fatal("render missing speedups")
	}
}

func TestFig7AccuracyPreserved(t *testing.T) {
	skipLongUnderRace(t)
	rows, err := Fig7(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TPU < r.CPU-0.04 {
			t.Errorf("%s: quantized accuracy %.3f too far below float %.3f", r.Dataset, r.TPU, r.CPU)
		}
		if r.TPUB < r.CPU-0.10 {
			t.Errorf("%s: bagging accuracy %.3f too far below full model %.3f", r.Dataset, r.TPUB, r.CPU)
		}
	}
	var buf bytes.Buffer
	RenderFig7(&buf, rows)
	if !strings.Contains(buf.String(), "TPU_B") {
		t.Fatal("render missing columns")
	}
}

func TestTableIIOrderOfMagnitude(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 20
	rows, err := TableII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mt, mi := MeanSpeedups(rows)
	// Paper: 19.4x training, 8.9x inference on average.
	if mt < 8 || mt > 35 {
		t.Errorf("mean training speedup %.1f outside [8,35]", mt)
	}
	if mi < 4 || mi > 20 {
		t.Errorf("mean inference speedup %.1f outside [4,20]", mi)
	}
	for _, r := range rows {
		if r.TrainingSpeedup < 5 {
			t.Errorf("%s: Pi training ratio %.1f implausibly low", r.Dataset, r.TrainingSpeedup)
		}
	}
	var buf bytes.Buffer
	RenderTableII(&buf, rows)
	if !strings.Contains(buf.String(), "Training") {
		t.Fatal("render missing rows")
	}
}

func TestFig8RatioSearch(t *testing.T) {
	skipLongUnderRace(t)
	points, err := Fig8(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Runtime must fall monotonically with α (β = 1 branch).
	var alphaPoints []Fig8Point
	for _, p := range points {
		if p.FeatureRatio == 1.0 {
			alphaPoints = append(alphaPoints, p)
		}
	}
	if len(alphaPoints) != len(Fig8Alphas) {
		t.Fatalf("%d α points", len(alphaPoints))
	}
	for i := 1; i < len(alphaPoints); i++ {
		if alphaPoints[i].Normalized <= alphaPoints[i-1].Normalized {
			t.Errorf("runtime not increasing with α at %v", alphaPoints[i].DatasetRatio)
		}
	}
	// The paper's chosen point α=0.6 runs in well under full-data time.
	for _, p := range alphaPoints {
		if p.DatasetRatio == 0.6 && (p.Normalized < 0.4 || p.Normalized > 0.9) {
			t.Errorf("α=0.6 normalized runtime %.3f outside [0.4,0.9] (paper: ~0.7)", p.Normalized)
		}
		if p.DatasetRatio == 1.0 && p.Normalized != 1.0 {
			t.Errorf("α=1 must normalize to 1, got %.3f", p.Normalized)
		}
	}
	// Feature sampling must NOT provide a meaningful runtime win — the
	// paper's reason for disabling it.
	for _, p := range points {
		if p.FeatureRatio < 1.0 && p.Normalized < 0.4 {
			t.Errorf("β=%v runtime %.3f suspiciously low; feature sampling shouldn't help this much",
				p.FeatureRatio, p.Normalized)
		}
	}
	var buf bytes.Buffer
	RenderFig8(&buf, points)
	if !strings.Contains(buf.String(), "α") {
		t.Fatal("render missing ratios")
	}
}

func TestFig9IterationSweep(t *testing.T) {
	skipLongUnderRace(t)
	points, err := Fig9(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("%d points", len(points))
	}
	if points[5].Normalized != 1.0 {
		t.Fatalf("8-iteration point normalizes to %.3f", points[5].Normalized)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Normalized <= points[i-1].Normalized {
			t.Errorf("update runtime not increasing with iterations at %d", points[i].Iterations)
		}
	}
	// The paper: 4-6 iterations save ~20% vs 8 with similar accuracy.
	mid := points[3] // 6 iterations
	if mid.Normalized > 0.95 {
		t.Errorf("6 iterations runtime %.3f saves nothing vs 8", mid.Normalized)
	}
	if mid.Accuracy < points[5].Accuracy-0.05 {
		t.Errorf("6-iteration accuracy %.3f collapsed vs 8-iteration %.3f", mid.Accuracy, points[5].Accuracy)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, points)
	if !strings.Contains(buf.String(), "Iterations") {
		t.Fatal("render missing header")
	}
}

func TestFig10ShapeMatchesPaper(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 20
	points, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Features != 20 || points[len(points)-1].Features != 700 {
		t.Fatalf("sweep endpoints %d..%d", points[0].Features, points[len(points)-1].Features)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Speedup <= points[i-1].Speedup {
			t.Errorf("speedup not increasing at n=%d", points[i].Features)
		}
	}
	if s := points[0].Speedup; s > 1.5 {
		t.Errorf("n=20 speedup %.2f; paper: 1.06", s)
	}
	if s := points[len(points)-1].Speedup; s < 5 || s > 12 {
		t.Errorf("n=700 speedup %.2f; paper: 8.25", s)
	}
	var buf bytes.Buffer
	RenderFig10(&buf, points)
	if !strings.Contains(buf.String(), "700") {
		t.Fatal("render missing sweep")
	}
}

func TestRunOneUnknown(t *testing.T) {
	if err := RunOne("nope", fastCfg(), nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunOneRendersAllRuntimeExperiments(t *testing.T) {
	cfg := fastCfg()
	for _, name := range []string{"table1", "fig5", "fig6", "table2", "fig10", "ablation-fused", "ablation-batch"} {
		var buf bytes.Buffer
		if err := RunOne(name, cfg, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s rendered nothing", name)
		}
	}
}

func TestRunAllTinyScale(t *testing.T) {
	skipLongUnderRace(t)
	// Full runner coverage, including the Fig4→Fig5 measured-fraction
	// wiring; tiny scale keeps it tractable.
	if testing.Short() {
		t.Skip("full runner pass")
	}
	cfg := Config{FunctionalSamples: 500, FunctionalDim: 384, Epochs: 5, Seed: 3}
	var buf bytes.Buffer
	if err := RunAll(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range AllExperiments {
		if !strings.Contains(out, "=== "+name+" ===") {
			t.Errorf("RunAll output missing %s", name)
		}
	}
}
