package experiments

import (
	"fmt"
	"io"
	"time"

	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// The binary-HDC backend sweep: at each hypervector dimension, train one
// float model and serve its two deployment forms side by side — the int8
// quantized graph through the interpreter path, and the sign-quantized
// bit-packed model through the binhd backend — measuring wall-clock cost,
// simulated cost, and held-out accuracy through each real serving path.
// The comparison shape is class-heavy (k > n) so the similarity search,
// which bit-packing collapses by ~64x, dominates the encode GEMM both
// engines share; dimension is the swept axis because it moves the two
// engines differently (the int8 path pays per-d fixed costs the packed
// path amortizes). See docs/backends.md.

// BinHDDims is the swept hypervector width.
var BinHDDims = []int{256, 512, 1024, 2048}

// binHDShape is the fixed comparison shape: features, classes, batch.
const (
	binHDFeatures = 16
	binHDClasses  = 26
	binHDBatch    = 16
	binHDSamples  = 1560 // 60 rows per class
	binHDEpochs   = 6
)

// BinHDPoint is one dimension cell.
type BinHDPoint struct {
	Dim int

	Int8Acc float64 // held-out accuracy via the int8 interpreter path
	BinAcc  float64 // held-out accuracy via the binhd packed path

	Int8WallNs int64 // wall ns per sample, full-batch invokes, best-of-reps
	BinWallNs  int64
	Int8SimUs  float64 // simulated us per sample at full batch
	BinSimUs   float64

	SpeedupWall float64 // Int8WallNs / BinWallNs
	SpeedupSim  float64 // Int8SimUs / BinSimUs

	PackedBytes int // bit-packed class-hypervector footprint
}

// BinHDResult is the full sweep.
type BinHDResult struct {
	Features, Classes, Batch int
	TrainRows, TestRows      int
	Points                   []BinHDPoint
}

// AblationBinHD sweeps dimension across both serving backends.
func AblationBinHD(cfg Config) (*BinHDResult, error) {
	train, test, err := binHDSplit(cfg)
	if err != nil {
		return nil, err
	}
	res := &BinHDResult{
		Features: binHDFeatures, Classes: binHDClasses, Batch: binHDBatch,
		TrainRows: train.Samples(), TestRows: test.Samples(),
	}
	for _, d := range BinHDDims {
		pt, err := BinHDCell(cfg, train, test, d)
		if err != nil {
			return nil, fmt.Errorf("experiments: binhd d=%d: %w", d, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// binHDSplit generates the synthetic comparison set and splits it. The
// clusters are kept single-mode and well separated: the quantization
// question is how much margin sign-thresholding gives up at a given d, and
// on a task both engines get mostly right the answer is a point or two —
// the regime the paper's binary-deployment claim is about — rather than
// being confounded with both engines failing on an under-determined task.
func binHDSplit(cfg Config) (train, test *dataset.Dataset, err error) {
	spec := dataset.SyntheticSpec(binHDFeatures, binHDSamples, binHDClasses, 7)
	spec.ModesPerClass = 1
	spec.NoiseStd = 0.15
	spec.ClusterSpread = 0.35
	ds, err := dataset.Generate(spec, 0)
	if err != nil {
		return nil, nil, err
	}
	train, test = ds.SplitStratified(0.25, rng.New(cfg.Seed+11))
	return train, test, nil
}

// BinHDCell trains one model at dimension d and measures both serving
// paths. Exported (within the package's public API) so the acceptance test
// can pin the paper bar at a single dimension without paying for the full
// sweep.
func BinHDCell(cfg Config, train, test *dataset.Dataset, d int) (BinHDPoint, error) {
	model, _, err := hdc.Train(train, nil, hdc.TrainConfig{
		Dim: d, Epochs: binHDEpochs, LearningRate: 1, Nonlinear: true, Seed: 7,
	})
	if err != nil {
		return BinHDPoint{}, err
	}
	p := pipeline.EdgeTPU()
	cm, err := pipeline.CompileInference(p, model, train, binHDBatch)
	if err != nil {
		return BinHDPoint{}, err
	}
	policy := pipeline.DefaultRecoveryPolicy()
	int8Runner, err := pipeline.NewResilientRunner(p, cm, edgetpu.FaultPlan{}, policy)
	if err != nil {
		return BinHDPoint{}, err
	}
	bm := model.Binarize()
	bin, err := binhd.New(p.Host, bm, binHDBatch)
	if err != nil {
		return BinHDPoint{}, err
	}
	binRunner, err := pipeline.WrapBackends(bin, nil, policy)
	if err != nil {
		return BinHDPoint{}, err
	}

	pt := BinHDPoint{Dim: d, PackedBytes: bm.Bytes()}
	if pt.Int8Acc, err = runnerAccuracy(int8Runner, test); err != nil {
		return BinHDPoint{}, err
	}
	if pt.BinAcc, err = runnerAccuracy(binRunner, test); err != nil {
		return BinHDPoint{}, err
	}
	wallNs, simUs, err := runnersWall([]*pipeline.ResilientRunner{int8Runner, binRunner}, test)
	if err != nil {
		return BinHDPoint{}, err
	}
	pt.Int8WallNs, pt.BinWallNs = wallNs[0], wallNs[1]
	pt.Int8SimUs, pt.BinSimUs = simUs[0], simUs[1]
	pt.SpeedupWall = float64(pt.Int8WallNs) / float64(pt.BinWallNs)
	pt.SpeedupSim = pt.Int8SimUs / pt.BinSimUs
	return pt, nil
}

// runnerAccuracy classifies the whole test set through the runner in
// full-capacity batches (a short tail rides a row-prefix invoke).
func runnerAccuracy(r *pipeline.ResilientRunner, test *dataset.Dataset) (float64, error) {
	n := test.Features()
	correct := 0
	for off := 0; off < test.Samples(); off += binHDBatch {
		rows := min(binHDBatch, test.Samples()-off)
		_, err := r.InvokeBatch(rows, func(in *tensor.Tensor) {
			copy(in.F32[:rows*n], test.X.F32[off*n:(off+rows)*n])
		})
		if err != nil {
			return 0, err
		}
		for i := 0; i < rows; i++ {
			if int(r.Output(0).I32[i]) == test.Y[off+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(test.Samples()), nil
}

// runnersWall measures each runner's full-batch invoke cost: wall ns per
// sample as the best of several timed repetitions (minimum filters
// scheduler noise), and the simulated cost per sample alongside. The
// runners take turns within every repetition, so load from the rest of
// the host lands on each side of a wall-clock ratio alike.
func runnersWall(runners []*pipeline.ResilientRunner, test *dataset.Dataset) ([]int64, []float64, error) {
	const (
		reps    = 5
		invokes = 20
	)
	n := test.Features()
	fill := func(in *tensor.Tensor) {
		copy(in.F32[:binHDBatch*n], test.X.F32[:binHDBatch*n])
	}
	best := make([]time.Duration, len(runners))
	simUs := make([]float64, len(runners))
	for i, r := range runners {
		sim, err := r.InvokeBatch(binHDBatch, fill) // warm caches and pools
		if err != nil {
			return nil, nil, err
		}
		simUs[i] = float64(sim.Total()) / float64(time.Microsecond) / binHDBatch
		best[i] = time.Duration(1<<63 - 1)
	}
	for rep := 0; rep < reps; rep++ {
		for i, r := range runners {
			start := time.Now()
			for j := 0; j < invokes; j++ {
				if _, err := r.InvokeBatch(binHDBatch, fill); err != nil {
					return nil, nil, err
				}
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	wallNs := make([]int64, len(runners))
	for i, b := range best {
		wallNs[i] = b.Nanoseconds() / (invokes * binHDBatch)
	}
	return wallNs, simUs, nil
}

// RenderAblationBinHD prints the sweep.
func RenderAblationBinHD(w io.Writer, res *BinHDResult) {
	t := &metrics.Table{
		Title: fmt.Sprintf(
			"Binary-HDC backend: int8 interpreter vs bit-packed bin, n=%d k=%d batch=%d (%d train / %d test rows)",
			res.Features, res.Classes, res.Batch, res.TrainRows, res.TestRows),
		Headers: []string{"Dim", "int8 acc", "bin acc", "int8 ns/sample", "bin ns/sample", "wall speedup", "sim speedup", "packed bytes"},
	}
	for _, pt := range res.Points {
		t.AddRow(
			fmt.Sprintf("%d", pt.Dim),
			metrics.FmtPct(pt.Int8Acc),
			metrics.FmtPct(pt.BinAcc),
			fmt.Sprintf("%d", pt.Int8WallNs),
			fmt.Sprintf("%d", pt.BinWallNs),
			metrics.FmtX(pt.SpeedupWall),
			metrics.FmtX(pt.SpeedupSim),
			fmt.Sprintf("%d", pt.PackedBytes),
		)
	}
	fprintf(w, "%s\n", t)
}
