package experiments

import (
	"fmt"
	"io"

	"hdcedge/internal/bagging"
	"hdcedge/internal/dataset"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
)

// Fig5Row is one dataset's training-runtime comparison across the three
// framework settings, modeled at the paper's full dataset scale.
type Fig5Row struct {
	Dataset string
	CPU     pipeline.TrainingBreakdown
	TPU     pipeline.TrainingBreakdown
	TPUB    pipeline.TrainingBreakdown
}

// Fig5 models the training runtime of all three settings per dataset.
// updateFracs optionally supplies measured per-epoch misclassification
// fractions per dataset (from Fig4); nil uses the calibrated default decay.
func Fig5(cfg Config, updateFracs map[string][]float64) ([]Fig5Row, error) {
	cpu := pipeline.CPUBaseline()
	tpu := pipeline.EdgeTPU()
	bcfg := bagging.DefaultConfig()
	var rows []Fig5Row
	for _, name := range DatasetNames() {
		spec, err := dataset.CatalogSpec(name)
		if err != nil {
			return nil, err
		}
		w := pipeline.FromSpec(spec, cfg.Epochs)
		if fracs, ok := updateFracs[name]; ok {
			w.UpdateFracs = fracs
			w.Epochs = len(fracs)
		}
		cb, err := pipeline.CPUTraining(cpu.Host, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig5 %s: %w", name, err)
		}
		tb, err := pipeline.TPUTraining(tpu, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig5 %s: %w", name, err)
		}
		bb, err := pipeline.BaggingTraining(tpu, w, bcfg, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig5 %s: %w", name, err)
		}
		rows = append(rows, Fig5Row{Dataset: name, CPU: cb, TPU: tb, TPUB: bb})
	}
	return rows, nil
}

// RenderFig5 prints per-dataset phase breakdowns normalized to the CPU
// baseline, matching the figure's stacked bars.
func RenderFig5(w io.Writer, rows []Fig5Row) {
	t := &metrics.Table{
		Title: "Fig 5: Training runtime (normalized to CPU baseline per dataset)",
		Headers: []string{"Dataset", "Setting", "Encode", "Update", "ModelGen", "Total",
			"Speedup", "AbsTotal"},
	}
	for _, r := range rows {
		base := r.CPU.Total()
		add := func(setting string, b pipeline.TrainingBreakdown) {
			n := metrics.Normalize(base, b.Encode, b.Update, b.ModelGen, b.Total())
			t.AddRow(r.Dataset, setting,
				fmt.Sprintf("%.3f", n[0]), fmt.Sprintf("%.3f", n[1]),
				fmt.Sprintf("%.3f", n[2]), fmt.Sprintf("%.3f", n[3]),
				metrics.FmtX(metrics.Speedup(base, b.Total())),
				metrics.FmtDur(b.Total()))
		}
		add("CPU", r.CPU)
		add("TPU", r.TPU)
		add("TPU_B", r.TPUB)
	}
	fprintf(w, "%s\n", t)
}
