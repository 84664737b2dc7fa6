package experiments

import (
	"fmt"
	"io"
)

// experiment is one named entry of the runner table: run computes the
// structured rows, render prints them.
type experiment struct {
	name   string
	run    func(Config) (any, error)
	render func(io.Writer, any)
}

// entry types one experiment's run/render pair into a table row.
func entry[T any](name string, run func(Config) (T, error), render func(io.Writer, T)) experiment {
	return experiment{
		name: name,
		run: func(cfg Config) (any, error) {
			v, err := run(cfg)
			return v, err
		},
		render: func(w io.Writer, v any) { render(w, v.(T)) },
	}
}

// experimentTable lists every experiment in RunAll order. AllExperiments,
// RunOne, RunOneJSON and RunAll all read it, so a name is runnable in every
// form or in none.
var experimentTable = []experiment{
	entry("table1", func(Config) ([]TableIRow, error) { return TableI() }, RenderTableI),
	entry("fig4", Fig4, RenderFig4),
	entry("fig5", func(cfg Config) ([]Fig5Row, error) { return Fig5(cfg, nil) }, RenderFig5),
	entry("fig6", Fig6, RenderFig6),
	entry("fig7", Fig7, RenderFig7),
	entry("table2", TableII, RenderTableII),
	entry("fig8", Fig8, RenderFig8),
	entry("fig9", Fig9, RenderFig9),
	entry("fig10", Fig10, RenderFig10),
	entry("table-energy", TableEnergy, RenderTableEnergy),
	entry("ablation-model", AblationModel, RenderAblationModel),
	entry("ablation-fused", AblationFusedVsSerial, RenderAblationFusedVsSerial),
	entry("ablation-subwidth", AblationSubWidth, RenderAblationSubWidth),
	entry("ablation-batch", AblationBatch, RenderAblationBatch),
	entry("ablation-robustness", AblationRobustness, RenderAblationRobustness),
	entry("ablation-link", AblationLink, RenderAblationLink),
	entry("ablation-dim", AblationDim, RenderAblationDim),
	entry("ablation-overlap", AblationOverlap, RenderAblationOverlap),
	entry("ablation-scaleout", AblationScaleOut, RenderAblationScaleOut),
	entry("ablation-faults", AblationFaults, RenderAblationFaults),
	entry("ablation-overload", AblationOverload, RenderAblationOverload),
	entry("ablation-batching", AblationBatching, RenderAblationBatching),
	entry("ablation-fleet", AblationFleet, RenderAblationFleet),
	entry("ablation-chaos", AblationChaos, RenderAblationChaos),
	entry("ablation-seu", AblationSEU, RenderAblationSEU),
	entry("ablation-binhd", AblationBinHD, RenderAblationBinHD),
	entry("ablation-multitenant", AblationMultiTenant, RenderAblationMultiTenant),
	entry("ablation-drift", AblationDrift, RenderAblationDrift),
	entry("table-variance", TableVariance, RenderTableVariance),
}

// AllExperiments names every experiment RunOne, RunOneJSON and the
// hdc-bench command accept, in RunAll order.
var AllExperiments = func() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}()

// lookup resolves an experiment name.
func lookup(name string) (experiment, error) {
	for _, e := range experimentTable {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, AllExperiments)
}

// RunOne executes the named experiment and renders it to w.
func RunOne(name string, cfg Config, w io.Writer) error {
	e, err := lookup(name)
	if err != nil {
		return err
	}
	v, err := e.run(cfg)
	if err != nil {
		return err
	}
	e.render(w, v)
	return nil
}

// RunOneJSON executes the named experiment and returns its structured
// rows (the same values the renderers print), for machine consumption.
func RunOneJSON(name string, cfg Config) (any, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return e.run(cfg)
}

// RunAll executes every experiment in order. It runs Fig 4 first and
// feeds its measured per-epoch misclassification fractions into Fig 5's
// runtime model, as the paper's setup implies (the update-phase cost is
// whatever training actually did).
func RunAll(cfg Config, w io.Writer) error {
	fprintf(w, "=== fig4 ===\n")
	series, err := Fig4(cfg)
	if err != nil {
		return fmt.Errorf("experiments: fig4: %w", err)
	}
	RenderFig4(w, series)
	measured := map[string][]float64{}
	for _, s := range series {
		measured[s.Dataset] = s.UpdateFracs
	}
	for _, name := range AllExperiments {
		if name == "fig4" {
			continue
		}
		fprintf(w, "=== %s ===\n", name)
		if name == "fig5" {
			rows, err := Fig5(cfg, measured)
			if err != nil {
				return fmt.Errorf("experiments: fig5: %w", err)
			}
			RenderFig5(w, rows)
			continue
		}
		if err := RunOne(name, cfg, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
	}
	return nil
}
