package experiments

import (
	"fmt"
	"io"
	"time"

	"hdcedge/internal/bagging"
	"hdcedge/internal/dataset"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
)

// This file implements the ablation studies DESIGN.md calls out for the
// framework's design choices. They are not paper artifacts, but each one
// isolates a decision the paper makes implicitly.

// ModelRow compares the paper's reference model with each alternative to
// it on one dataset. The reference is the tanh random-projection encoder,
// perceptron-trained for cfg.Epochs iterations and kept in float: the
// §III-A choice that makes encoding a matmul the accelerator can run. Every
// other column changes one thing about that model.
type ModelRow struct {
	Dataset string
	Tanh    float64 // the reference model
	Linear  float64 // linear projection encoder (prior work)
	// IDLevel is the record-based ID–level encoder. Its per-value gather is
	// element-wise, so it stays on the CPU.
	IDLevel     float64
	OnlineOne   float64 // one OnlineHD-style adaptive pass
	OnlineThree float64 // three adaptive passes
	Bipolar     float64 // the reference model's classes sign-quantized
	FloatBytes  int     // the reference model's class hypervectors
	PackedBytes int     // the same, bit-packed
}

// AblationModel trains the reference model once per catalog dataset and
// each alternative beside it.
func AblationModel(cfg Config) ([]ModelRow, error) {
	var rows []ModelRow
	for _, name := range DatasetNames() {
		train, test, err := loadSplit(name, cfg)
		if err != nil {
			return nil, err
		}
		ref := hdc.TrainConfig{
			Dim: cfg.FunctionalDim, Epochs: cfg.Epochs, LearningRate: 1, Nonlinear: true, Seed: cfg.Seed,
		}
		m, _, err := hdc.Train(train, nil, ref)
		if err != nil {
			return nil, fmt.Errorf("experiments: model ablation %s: %w", name, err)
		}
		lin := ref
		lin.Nonlinear = false
		mLin, _, err := hdc.Train(train, nil, lin)
		if err != nil {
			return nil, fmt.Errorf("experiments: model ablation %s: %w", name, err)
		}
		idl, _, err := hdc.TrainIDLevel(train, hdc.IDLevelConfig{
			Dim: cfg.FunctionalDim, Levels: 32, Epochs: cfg.Epochs, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: model ablation %s: %w", name, err)
		}
		online := func(passes int) (float64, error) {
			om, _, err := hdc.TrainOnline(train, cfg.FunctionalDim, passes, hdc.OnlineConfig{LearningRate: 1}, true, cfg.Seed)
			if err != nil {
				return 0, fmt.Errorf("experiments: model ablation %s: %w", name, err)
			}
			om.Metric = hdc.CosineSimilarity
			return om.Accuracy(test), nil
		}
		one, err := online(1)
		if err != nil {
			return nil, err
		}
		three, err := online(3)
		if err != nil {
			return nil, err
		}
		bm := m.Binarize()
		rows = append(rows, ModelRow{
			Dataset:     name,
			Tanh:        m.Accuracy(test),
			Linear:      mLin.Accuracy(test),
			IDLevel:     idl.Accuracy(test),
			OnlineOne:   one,
			OnlineThree: three,
			Bipolar:     metrics.Accuracy(bm.PredictBatch(test.X), test.Y),
			FloatBytes:  m.K() * m.Dim() * 4,
			PackedBytes: bm.Bytes(),
		})
	}
	return rows, nil
}

// RenderAblationModel prints the reference model beside each alternative.
func RenderAblationModel(w io.Writer, rows []ModelRow) {
	t := &metrics.Table{
		Title: "Ablation: reference model (tanh projection, iterative perceptron, float) vs each alternative",
		Headers: []string{"Dataset", "tanh", "linear", "ID-level", "online 1 pass", "online 3 passes",
			"bipolar", "float bytes", "packed bytes", "shrink"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, metrics.FmtPct(r.Tanh), metrics.FmtPct(r.Linear), metrics.FmtPct(r.IDLevel),
			metrics.FmtPct(r.OnlineOne), metrics.FmtPct(r.OnlineThree), metrics.FmtPct(r.Bipolar),
			fmt.Sprint(r.FloatBytes), fmt.Sprint(r.PackedBytes),
			metrics.FmtX(float64(r.FloatBytes)/float64(r.PackedBytes)))
	}
	fprintf(w, "%s\n", t)
}

// FusedVsSerialRow compares the fused single inference model against
// invoking the M sub-models serially (the naive bagging deployment the
// paper rejects).
type FusedVsSerialRow struct {
	Dataset string
	Fused   time.Duration
	Serial  time.Duration
	// Overhead is Serial/Fused: the cost of not fusing.
	Overhead float64
}

// AblationFusedVsSerial models both deployments per dataset.
func AblationFusedVsSerial(cfg Config) ([]FusedVsSerialRow, error) {
	tpu := pipeline.EdgeTPU()
	bcfg := bagging.DefaultConfig()
	var rows []FusedVsSerialRow
	for _, name := range DatasetNames() {
		spec, err := dataset.CatalogSpec(name)
		if err != nil {
			return nil, err
		}
		w := pipeline.FromSpec(spec, cfg.Epochs)
		fused, err := pipeline.TPUInference(tpu, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: fused-vs-serial %s: %w", name, err)
		}
		// Serial: each query runs through M sub-model inference graphs of
		// width d' — M times the invocations, each with full per-invoke
		// overheads, plus model swaps ignored (charitable to serial).
		sub := w
		sub.Dim = bcfg.SubDim()
		perSub, err := pipeline.TPUInference(tpu, sub)
		if err != nil {
			return nil, fmt.Errorf("experiments: fused-vs-serial %s: %w", name, err)
		}
		serial := time.Duration(bcfg.SubModels) * perSub
		rows = append(rows, FusedVsSerialRow{
			Dataset: name, Fused: fused, Serial: serial,
			Overhead: metrics.Speedup(serial, fused),
		})
	}
	return rows, nil
}

// RenderAblationFusedVsSerial prints the deployment comparison.
func RenderAblationFusedVsSerial(w io.Writer, rows []FusedVsSerialRow) {
	t := &metrics.Table{
		Title:   "Ablation: fused single inference model vs M serial sub-model invokes",
		Headers: []string{"Dataset", "Fused", "Serial", "Serial/Fused"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, metrics.FmtDur(r.Fused), metrics.FmtDur(r.Serial), metrics.FmtX(r.Overhead))
	}
	fprintf(w, "%s\n", t)
}

// SubWidthRow compares d' = d/M sub-models (the paper's choice) against
// full-width sub-models on ISOLET: accuracy and modeled update cost.
type SubWidthRow struct {
	SubDimPolicy string
	Accuracy     float64
	UpdateTime   time.Duration
}

// AblationSubWidth evaluates both policies.
func AblationSubWidth(cfg Config) ([]SubWidthRow, error) {
	train, test, err := loadSplit("ISOLET", cfg)
	if err != nil {
		return nil, err
	}
	spec, err := dataset.CatalogSpec("ISOLET")
	if err != nil {
		return nil, err
	}
	w := pipeline.FromSpec(spec, cfg.Epochs)
	tpu := pipeline.EdgeTPU()

	eval := func(policy string, dim int, modelDim int) (SubWidthRow, error) {
		bcfg := bagging.DefaultConfig()
		bcfg.Dim = dim
		bcfg.Seed = cfg.Seed
		ens, _, err := bagging.Train(train, bcfg)
		if err != nil {
			return SubWidthRow{}, err
		}
		modelCfg := bcfg
		modelCfg.Dim = modelDim
		bb, err := pipeline.BaggingTraining(tpu, w, modelCfg, nil)
		if err != nil {
			return SubWidthRow{}, err
		}
		return SubWidthRow{SubDimPolicy: policy, Accuracy: ens.Accuracy(test), UpdateTime: bb.Update}, nil
	}
	divided, err := eval("d' = d/M", cfg.FunctionalDim, w.Dim)
	if err != nil {
		return nil, fmt.Errorf("experiments: sub-width ablation: %w", err)
	}
	// Full-width sub-models: every sub-model is d wide (fused model would
	// be M·d — the unfair-but-stronger ensemble).
	full, err := eval("d' = d", cfg.FunctionalDim*4, w.Dim*4)
	if err != nil {
		return nil, fmt.Errorf("experiments: sub-width ablation: %w", err)
	}
	return []SubWidthRow{divided, full}, nil
}

// RenderAblationSubWidth prints the width-policy comparison.
func RenderAblationSubWidth(w io.Writer, rows []SubWidthRow) {
	t := &metrics.Table{
		Title:   "Ablation: sub-model width policy (ISOLET)",
		Headers: []string{"Policy", "Accuracy", "Modeled update time"},
	}
	for _, r := range rows {
		t.AddRow(r.SubDimPolicy, metrics.FmtPct(r.Accuracy), metrics.FmtDur(r.UpdateTime))
	}
	fprintf(w, "%s\n", t)
}

// BatchPoint is one accelerator batch size's per-sample encoding cost.
type BatchPoint struct {
	Batch        int
	PerSample    time.Duration
	RelativeTo32 float64
}

// AblationBatch models the sensitivity of per-sample encoding cost to the
// invoke batch size on MNIST.
func AblationBatch(cfg Config) ([]BatchPoint, error) {
	spec, err := dataset.CatalogSpec("MNIST")
	if err != nil {
		return nil, err
	}
	tpu := pipeline.EdgeTPU()
	var points []BatchPoint
	var base time.Duration
	for _, batch := range []int{1, 4, 8, 16, 32, 64, 128, 256} {
		w := pipeline.FromSpec(spec, cfg.Epochs)
		w.Batch = batch
		tb, err := pipeline.TPUTraining(tpu, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: batch ablation %d: %w", batch, err)
		}
		per := tb.Encode / time.Duration(w.TrainSamples)
		if batch == 32 {
			base = per
		}
		points = append(points, BatchPoint{Batch: batch, PerSample: per})
	}
	for i := range points {
		points[i].RelativeTo32 = float64(points[i].PerSample) / float64(base)
	}
	return points, nil
}

// RenderAblationBatch prints the batch sweep.
func RenderAblationBatch(w io.Writer, points []BatchPoint) {
	t := &metrics.Table{
		Title:   "Ablation: per-sample encoding cost vs invoke batch (MNIST)",
		Headers: []string{"Batch", "Per-sample", "vs batch 32"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Batch), metrics.FmtDur(p.PerSample), fmt.Sprintf("%.2f", p.RelativeTo32))
	}
	fprintf(w, "%s\n", t)
}

// LinkRow compares the USB accelerator against a PCIe-attached variant on
// one dataset — a sensitivity study of the fixed per-invoke costs that
// gate small-feature workloads (Fig 10's mechanism).
type LinkRow struct {
	Dataset string
	USB     time.Duration
	PCIe    time.Duration
	Gain    float64
}

// AblationLink models inference on both link types.
func AblationLink(cfg Config) ([]LinkRow, error) {
	usb := pipeline.EdgeTPU()
	pcie := pipeline.EdgeTPUPCIe()
	var rows []LinkRow
	for _, name := range DatasetNames() {
		spec, err := dataset.CatalogSpec(name)
		if err != nil {
			return nil, err
		}
		w := pipeline.FromSpec(spec, cfg.Epochs)
		u, err := pipeline.TPUInference(usb, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: link %s: %w", name, err)
		}
		p, err := pipeline.TPUInference(pcie, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: link %s: %w", name, err)
		}
		rows = append(rows, LinkRow{Dataset: name, USB: u, PCIe: p, Gain: metrics.Speedup(u, p)})
	}
	return rows, nil
}

// RenderAblationLink prints the link comparison.
func RenderAblationLink(w io.Writer, rows []LinkRow) {
	t := &metrics.Table{
		Title:   "Ablation: USB vs PCIe host link (inference)",
		Headers: []string{"Dataset", "USB", "PCIe", "PCIe gain"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, metrics.FmtDur(r.USB), metrics.FmtDur(r.PCIe), metrics.FmtX(r.Gain))
	}
	fprintf(w, "%s\n", t)
}

// DimPoint is one hypervector-width setting: functional accuracy on
// ISOLET plus modeled full-scale training time.
type DimPoint struct {
	Dim       int
	Accuracy  float64
	TrainTime time.Duration
}

// AblationDim sweeps the hypervector width — the trade-off behind the
// paper's d = 10,000 choice and behind bagging's d' = d/M sub-models.
func AblationDim(cfg Config) ([]DimPoint, error) {
	train, test, err := loadSplit("ISOLET", cfg)
	if err != nil {
		return nil, err
	}
	spec, err := dataset.CatalogSpec("ISOLET")
	if err != nil {
		return nil, err
	}
	tpu := pipeline.EdgeTPU()
	var points []DimPoint
	for _, dim := range []int{256, 512, 1024, 2048, 4096} {
		m, _, err := hdc.Train(train, nil, hdc.TrainConfig{
			Dim: dim, Epochs: cfg.Epochs, LearningRate: 1, Nonlinear: true, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: dim ablation %d: %w", dim, err)
		}
		// Runtime modeled at the swept width, scaled to the paper's
		// proportions (full sample counts, 20 iterations).
		w := pipeline.FromSpec(spec, cfg.Epochs)
		w.Dim = dim * (10000 / 4096) // keep the sweep's relative spacing at full scale
		if w.Dim < dim {
			w.Dim = dim
		}
		tb, err := pipeline.TPUTraining(tpu, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: dim ablation %d: %w", dim, err)
		}
		points = append(points, DimPoint{Dim: dim, Accuracy: m.Accuracy(test), TrainTime: tb.Total()})
	}
	return points, nil
}

// RenderAblationDim prints the width sweep.
func RenderAblationDim(w io.Writer, points []DimPoint) {
	t := &metrics.Table{
		Title:   "Ablation: hypervector width d (ISOLET)",
		Headers: []string{"d", "Accuracy", "Modeled training time"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Dim), metrics.FmtPct(p.Accuracy), metrics.FmtDur(p.TrainTime))
	}
	fprintf(w, "%s\n", t)
}

// OverlapRow compares sequential (single-buffered) against pipelined
// (double-buffered) training-set encoding.
type OverlapRow struct {
	Dataset    string
	Sequential time.Duration
	Pipelined  time.Duration
	Gain       float64
}

// AblationOverlap models both invocation disciplines per dataset.
func AblationOverlap(cfg Config) ([]OverlapRow, error) {
	tpu := pipeline.EdgeTPU()
	var rows []OverlapRow
	for _, name := range DatasetNames() {
		spec, err := dataset.CatalogSpec(name)
		if err != nil {
			return nil, err
		}
		w := pipeline.FromSpec(spec, cfg.Epochs)
		seq, err := pipeline.TPUTraining(tpu, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: overlap %s: %w", name, err)
		}
		pipe, err := pipeline.TPUTrainingPipelined(tpu, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: overlap %s: %w", name, err)
		}
		rows = append(rows, OverlapRow{
			Dataset:    name,
			Sequential: seq.Encode,
			Pipelined:  pipe.Encode,
			Gain:       metrics.Speedup(seq.Encode, pipe.Encode),
		})
	}
	return rows, nil
}

// RenderAblationOverlap prints the comparison.
func RenderAblationOverlap(w io.Writer, rows []OverlapRow) {
	t := &metrics.Table{
		Title:   "Ablation: sequential vs double-buffered training-set encoding",
		Headers: []string{"Dataset", "Sequential", "Pipelined", "Gain"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, metrics.FmtDur(r.Sequential), metrics.FmtDur(r.Pipelined), metrics.FmtX(r.Gain))
	}
	fprintf(w, "%s\n", t)
}

// ScaleOutPoint is one (link, device count) setting in the
// multi-accelerator sweep.
type ScaleOutPoint struct {
	Link    string
	Devices int
	Encode  time.Duration
	Speedup float64
}

// AblationScaleOut models MNIST training-set encoding across 1–8
// accelerators sharing one host link, for both link types. The encoder
// workload streams d bytes of hypervector back per sample, so the USB
// variant is link-bound already at one device — extra dongles buy
// nothing — while the PCIe variant starts compute-bound and scales until
// its link saturates.
func AblationScaleOut(cfg Config) ([]ScaleOutPoint, error) {
	spec, err := dataset.CatalogSpec("MNIST")
	if err != nil {
		return nil, err
	}
	w := pipeline.FromSpec(spec, cfg.Epochs)
	invokes := (w.TrainSamples + w.Batch - 1) / w.Batch
	var points []ScaleOutPoint
	for _, plat := range []pipeline.Platform{pipeline.EdgeTPU(), pipeline.EdgeTPUPCIe()} {
		per, _, err := pipeline.AcceleratorEncodeTiming(plat, w)
		if err != nil {
			return nil, err
		}
		base := pipeline.MultiDeviceSeries(per, invokes, 1)
		for _, devices := range []int{1, 2, 4, 8} {
			enc := pipeline.MultiDeviceSeries(per, invokes, devices)
			points = append(points, ScaleOutPoint{
				Link:    plat.Accel.Name,
				Devices: devices,
				Encode:  enc,
				Speedup: metrics.Speedup(base, enc),
			})
		}
	}
	return points, nil
}

// RenderAblationScaleOut prints the sweep.
func RenderAblationScaleOut(w io.Writer, points []ScaleOutPoint) {
	t := &metrics.Table{
		Title:   "Ablation: multi-accelerator encode scaling (MNIST, shared host link)",
		Headers: []string{"Link", "Devices", "Encode", "Speedup vs 1"},
	}
	for _, p := range points {
		t.AddRow(p.Link, fmt.Sprint(p.Devices), metrics.FmtDur(p.Encode), metrics.FmtX(p.Speedup))
	}
	fprintf(w, "%s\n", t)
}
