package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/integrity"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// The SEU ablation: a fixed request stream against a single-device server
// whose resident int8 parameters take seeded single-event upsets on every
// invoke, swept across upset rates and defense levels. Three defense cells
// isolate what each integrity layer buys: no defense (corruption
// accumulates in SRAM for the whole run), canaries only (known-answer
// checks catch gross damage and repair by model reload — but only damage
// big enough to move the canary rows), and full self-heal (checksum
// scrubbing catches every flipped bit and repairs by segment re-upload,
// escalating through the ladder if that fails). The acceptance bars: with
// no defense the top upset rate costs real accuracy, while full self-heal
// stays within SEUSelfHealDropPts of the clean baseline at every rate and
// closes every incident it opens.

// SEUDefenseRates are the swept per-bit, per-invoke upset probabilities. At the
// model's ~4 Mbit resident image the low rate flips a handful of bits per
// invoke, the high rate hundreds — enough to visibly bend accuracy over a
// few hundred invokes if nobody repairs the damage.
var SEUDefenseRates = []float64{1e-5, 1e-4}

// SEURequests is the request stream length per cell.
const SEURequests = 320

// SEUSelfHealDropPts is the acceptance bar for the full-defense cell:
// accuracy within this many points of the clean baseline at every rate.
const SEUSelfHealDropPts = 1.0

// SEUNoDefenseDropPts is how much accuracy the undefended cell must lose
// at the top swept rate for the injection to count as a real threat.
const SEUNoDefenseDropPts = 5.0

// SEUPoint is one (rate, defense) cell.
type SEUPoint struct {
	Scenario string  // defense level
	Rate     float64 // per-bit per-invoke upset probability, 0 for clean

	Requests int
	Correct  int
	Accuracy float64 // percent of requests classified correctly

	// Integrity accounting, all zero for the undefended cells.
	Scrubs, Corruptions        int
	CanaryRuns, CanaryFailures int
	Incidents, Repaired        int
	Restores, Reloads          int
	Resets, Quarantines        int
	MeanTTR, MaxTTR            time.Duration // wall-clock time to repair
	RepairSim                  time.Duration // simulated cost of repair traffic
}

// SEUResult is the full sweep.
type SEUResult struct {
	Dataset string
	Rates   []float64
	Points  []SEUPoint
}

// Clean returns the fault-free baseline cell.
func (r *SEUResult) Clean() SEUPoint { return r.Points[0] }

// Cell returns the named defense cell at one rate.
func (r *SEUResult) Cell(scenario string, rate float64) (SEUPoint, bool) {
	for _, pt := range r.Points {
		if pt.Scenario == scenario && pt.Rate == rate {
			return pt, true
		}
	}
	return SEUPoint{}, false
}

// AblationSEU runs the SEU-rate × defense-level sweep.
func AblationSEU(cfg Config) (*SEUResult, error) {
	p, cm, ds, err := overloadModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: seu model: %w", err)
	}
	canaries, err := seuCanaries(cm, ds, 4)
	if err != nil {
		return nil, fmt.Errorf("experiments: seu canaries: %w", err)
	}
	res := &SEUResult{Dataset: "ISOLET", Rates: SEUDefenseRates}
	clean, err := seuCell(p, cm, ds, cfg, "clean", 0, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: seu clean cell: %w", err)
	}
	res.Points = append(res.Points, clean)
	for _, rate := range SEUDefenseRates {
		cells := []struct {
			name string
			pol  *integrity.Policy
		}{
			{"no defense", nil},
			{"canary only", &integrity.Policy{
				CanaryInterval: 500 * time.Microsecond,
				Canaries:       canaries,
			}},
			{"self-heal", &integrity.Policy{
				ScrubInterval:  200 * time.Microsecond,
				CanaryInterval: time.Millisecond,
				Canaries:       canaries,
			}},
		}
		for _, c := range cells {
			pt, err := seuCell(p, cm, ds, cfg, c.name, rate, c.pol)
			if err != nil {
				return nil, fmt.Errorf("experiments: seu cell %q rate %g: %w", c.name, rate, err)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// seuCanaries records golden answers for the first confidently-classified
// dataset rows through the compiled graph.
func seuCanaries(cm *edgetpu.CompiledModel, ds *dataset.Dataset, n int) ([]integrity.Canary, error) {
	feat := ds.Features()
	limit := 8 * n
	if limit > ds.Samples() {
		limit = ds.Samples()
	}
	rows := make([][]float32, limit)
	for i := range rows {
		rows[i] = ds.X.F32[i*feat : (i+1)*feat]
	}
	all, err := integrity.BuildCanaries(cm.Model, rows)
	if err != nil {
		return nil, err
	}
	var picked []integrity.Canary
	for _, c := range all {
		if c.Margin > 0 && len(picked) < n {
			picked = append(picked, c)
		}
	}
	if len(picked) == 0 {
		if len(all) > n {
			all = all[:n]
		}
		return all, nil
	}
	return picked, nil
}

// seuCell drives the request stream against one defense configuration and
// scores every prediction against the dataset labels.
func seuCell(p pipeline.Platform, cm *edgetpu.CompiledModel, ds *dataset.Dataset,
	cfg Config, name string, rate float64, pol *integrity.Policy) (SEUPoint, error) {
	policy := pipeline.DefaultRecoveryPolicy()
	policy.Seed = cfg.Seed + 31
	s, err := serve.New(p, cm, serve.Config{
		Policy:    policy,
		Plan:      edgetpu.FaultPlan{Seed: cfg.Seed + 911, BitFlipRate: rate},
		Integrity: pol,
	})
	if err != nil {
		return SEUPoint{}, err
	}
	defer s.Close()

	pt := SEUPoint{Scenario: name, Rate: rate, Requests: SEURequests}
	_, err = serve.ClosedLoop(1, SEURequests, func(i int) error {
		row := i % ds.Samples()
		pred := -1
		if _, err := s.Do(context.Background(), overloadFill(ds, i), func(out *tensor.Tensor) {
			pred = int(out.I32[0])
		}); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if pred == ds.Y[row] {
			pt.Correct++
		}
		// Brief idle windows so interval timers fire even when the
		// sequential stream would otherwise keep the worker saturated.
		if i%16 == 15 {
			time.Sleep(300 * time.Microsecond)
		}
		return nil
	})
	if err != nil {
		return SEUPoint{}, err
	}
	if err := s.Drain(context.Background()); err != nil {
		return SEUPoint{}, fmt.Errorf("drain: %w", err)
	}
	pt.Accuracy = 100 * float64(pt.Correct) / float64(pt.Requests)
	if g := s.Report().Integrity; g != nil {
		pt.Scrubs, pt.Corruptions = g.Scrubs, g.Corruptions
		pt.CanaryRuns, pt.CanaryFailures = g.CanaryRuns, g.CanaryFailures
		pt.Incidents, pt.Repaired = g.Incidents, g.Repaired
		pt.Restores, pt.Reloads = g.Restores, g.Reloads
		pt.Resets, pt.Quarantines = g.Resets, g.Quarantines
		pt.RepairSim = g.RepairSimTime
		if g.TimeToRepair != nil && g.TimeToRepair.Count() > 0 {
			pt.MeanTTR = g.TimeToRepair.Mean()
			pt.MaxTTR = g.TimeToRepair.Max()
		}
	}
	return pt, nil
}

// RenderAblationSEU prints the sweep.
func RenderAblationSEU(w io.Writer, res *SEUResult) {
	clean := res.Clean()
	t := &metrics.Table{
		Title: fmt.Sprintf(
			"SEU ablation: single-device serving on %s, %d requests per cell, upset rates %v per bit per invoke",
			res.Dataset, SEURequests, res.Rates),
		Headers: []string{"Defense", "Rate", "Accuracy", "vs clean",
			"Scrubs", "Corrupt", "Canaries", "Failures",
			"Reupload", "Reload", "Reset", "Quar", "TTR mean", "Repair sim"},
	}
	for _, pt := range res.Points {
		rate := "0"
		if pt.Rate > 0 {
			rate = fmt.Sprintf("%.0e", pt.Rate)
		}
		t.AddRow(
			pt.Scenario,
			rate,
			fmt.Sprintf("%.1f%%", pt.Accuracy),
			fmt.Sprintf("%+.1f", pt.Accuracy-clean.Accuracy),
			fmt.Sprintf("%d", pt.Scrubs),
			fmt.Sprintf("%d", pt.Corruptions),
			fmt.Sprintf("%d", pt.CanaryRuns),
			fmt.Sprintf("%d", pt.CanaryFailures),
			fmt.Sprintf("%d", pt.Restores),
			fmt.Sprintf("%d", pt.Reloads),
			fmt.Sprintf("%d", pt.Resets),
			fmt.Sprintf("%d", pt.Quarantines),
			metrics.FmtDur(pt.MeanTTR),
			metrics.FmtDur(pt.RepairSim),
		)
	}
	fprintf(w, "%s\n", t)
}
