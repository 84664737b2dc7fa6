package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/online"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/rng"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// The drift ablation closes the online-learning loop under load: a
// registry-mode server runs at full utilization (closed-loop clients ==
// devices) while the live stream's feature distribution is permuted
// mid-run — the classic sensor-rewiring shift that collapses a frozen
// model to near-chance. Two cells replay the identical request schedule:
//
//   - frozen: no trainer; the pre-shift model serves the whole run.
//   - online+regen: every completed request feeds its ground-truth label
//     back through online.Trainer.Offer; the trainer adapts a private
//     copy, the drift detector notices the accuracy collapse and triggers
//     dimension regeneration + replay refinement, and each snapshot is
//     hot-swapped into the registry for workers to bind.
//
// The quality bars: the online cell's trailing-round accuracy recovers to
// within 2 points of its own pre-shift baseline, the frozen cell stays at
// least 8 points down, and the online cell's end-to-end p99 stays within
// 1.2x the frozen cell's — training is host-side and snapshot publication
// is an atomic pointer swap, so serving never blocks on learning.

// DriftRound is one measured pass over the live stream.
type DriftRound struct {
	Round    int // 0 is the pre-shift baseline pass
	Shifted  bool
	Requests int
	Accuracy float64
}

// DriftCell is one configuration's full run.
type DriftCell struct {
	Cell     string // "frozen", "online+regen"
	Baseline float64
	Final    float64 // trailing-round accuracy after the shift
	Rounds   []DriftRound
	P99      time.Duration
	Stats    online.Stats // zero-valued for the frozen cell
}

// DriftResult is the ablation: the same shifted workload with and
// without the feedback trainer.
type DriftResult struct {
	Dataset     string
	Devices     int
	Service     time.Duration
	ShiftRounds int

	Frozen DriftCell
	Online DriftCell

	// RecoveryGap is the online cell's baseline minus its trailing-round
	// accuracy (bar: <= 0.02). FrozenGap is the same for the frozen cell
	// (bar: >= 0.08). P99Ratio is online p99 over frozen p99 on the
	// identical schedule (bar: <= 1.2).
	RecoveryGap float64
	FrozenGap   float64
	P99Ratio    float64
}

// Full-load shape: as many closed-loop clients as paced devices, so the
// fleet runs at 100% utilization and any training-induced stall would
// surface directly in the latency tail. The pace is coarse enough that
// OS scheduling jitter stays small against the 1.2x p99 ratio.
const (
	driftDevices = 2
	driftService = 8 * time.Millisecond
	driftRounds  = 5
)

// AblationDrift runs both cells on the same seeded shift.
func AblationDrift(cfg Config) (*DriftResult, error) {
	train, test, err := loadSplit("ISOLET", cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: drift split: %w", err)
	}
	model, _, err := hdc.Train(train, nil, hdc.TrainConfig{
		Dim: cfg.FunctionalDim, Epochs: cfg.Epochs, LearningRate: 1,
		Nonlinear: true, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: drift train: %w", err)
	}
	shifted := permuteColumns(test, cfg.Seed+13)

	res := &DriftResult{
		Dataset:     "ISOLET",
		Devices:     driftDevices,
		Service:     driftService,
		ShiftRounds: driftRounds,
	}
	// The online trainer sees feedback from every completed request. The
	// window/buffer are sized to the stream: the detector fires within a
	// fraction of one round of the shift, and the replay ring has turned
	// over to mostly-shifted samples by the time a regeneration's cooldown
	// elapses, so refinement works from the new distribution.
	ocfg := &online.Config{
		SnapshotEvery:  64,
		DriftWindow:    32,
		RegenCooldown:  64,
		Buffer:         256,
		RegenFraction:  0.2,
		RegenEpochs:    5,
		DriftThreshold: 0.15,
		Seed:           cfg.Seed + 1,
	}
	res.Frozen, err = driftCell(cfg, "frozen", model, train, test, shifted, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: drift frozen cell: %w", err)
	}
	res.Online, err = driftCell(cfg, "online+regen", model, train, test, shifted, ocfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: drift online cell: %w", err)
	}
	res.RecoveryGap = res.Online.Baseline - res.Online.Final
	res.FrozenGap = res.Frozen.Baseline - res.Frozen.Final
	if res.Frozen.P99 > 0 {
		res.P99Ratio = float64(res.Online.P99) / float64(res.Frozen.P99)
	}
	return res, nil
}

// driftCell serves the baseline pass and then driftRounds shifted passes
// against one configuration. A nil online config runs the frozen cell
// through the identical code path — the nil trainer's methods are no-ops,
// which is exactly the "online learning off" production wiring.
func driftCell(cfg Config, name string, model *hdc.Model, train, test, shifted *dataset.Dataset,
	ocfg *online.Config) (DriftCell, error) {
	p := pipeline.EdgeTPU()
	cm, err := pipeline.CompileInference(p, model, train, 1)
	if err != nil {
		return DriftCell{}, err
	}
	g := registry.New()
	if _, err := g.Register("m", cm, nil); err != nil {
		return DriftCell{}, err
	}
	policy := pipeline.DefaultRecoveryPolicy()
	policy.Seed = cfg.Seed + 1
	met := metrics.NewRegistry()
	s, err := serve.New(p, nil, serve.Config{
		Fleet:         serve.TPUFleet(driftDevices),
		Policy:        policy,
		Registry:      g,
		Metrics:       met,
		PacePerInvoke: driftService,
		DrainDeadline: 30 * time.Second,
	})
	if err != nil {
		return DriftCell{}, err
	}
	defer s.Close()

	tr, err := online.New(p, g, ocfg, met)
	if err != nil {
		return DriftCell{}, err
	}
	if tr != nil {
		if err := tr.Attach("m", model, train); err != nil {
			return DriftCell{}, err
		}
		if err := tr.Start(); err != nil {
			return DriftCell{}, err
		}
	}
	defer tr.Close()

	cell := DriftCell{Cell: name}
	run := func(round int, ds *dataset.Dataset, isShifted bool) error {
		acc, err := driftPass(s, tr, ds)
		if err != nil {
			return err
		}
		cell.Rounds = append(cell.Rounds, DriftRound{
			Round: round, Shifted: isShifted, Requests: ds.Samples(), Accuracy: acc,
		})
		// Sequence rounds against the trainer so round r+1 serves a model
		// that has absorbed round r's feedback (flush publishes updates
		// still below the SnapshotEvery threshold); within a round the
		// trainer runs fully concurrent with serving.
		tr.Quiesce()
		tr.Flush()
		return nil
	}
	if err := run(0, test, false); err != nil {
		return DriftCell{}, err
	}
	for r := 1; r <= driftRounds; r++ {
		if err := run(r, shifted, true); err != nil {
			return DriftCell{}, err
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		return DriftCell{}, err
	}
	rep := s.Report()
	if rep.Failed > 0 || rep.Completed != rep.Submitted {
		return DriftCell{}, fmt.Errorf("cell dropped work: %d/%d completed, %d failed",
			rep.Completed, rep.Submitted, rep.Failed)
	}
	cell.Baseline = cell.Rounds[0].Accuracy
	cell.Final = cell.Rounds[len(cell.Rounds)-1].Accuracy
	cell.P99 = rep.Latency.Quantile(0.99)
	cell.Stats = tr.Stats()
	return cell, nil
}

// driftPass streams one full pass of ds through the server, closed-loop
// with driftDevices clients, feeding each completed request's ground
// truth back to the trainer from the Consume callback — the production
// wiring, where Offer must never block the serving path.
func driftPass(s *serve.Server, tr *online.Trainer, ds *dataset.Dataset) (float64, error) {
	n := ds.Features()
	preds := make([]int32, ds.Samples())
	_, err := serve.ClosedLoop(driftDevices, ds.Samples(), func(i int) error {
		row := ds.X.F32[i*n : (i+1)*n]
		label := ds.Y[i]
		_, err := s.Submit(context.Background(), serve.Request{
			Fill: func(in *tensor.Tensor) { copy(in.F32, row) },
			Consume: func(out *tensor.Tensor) {
				preds[i] = out.I32[0]
				tr.Offer(online.Feedback{Features: row, Label: label})
			},
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range preds {
		if int(p) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds)), nil
}

// permuteColumns returns a copy of ds with its feature columns permuted
// by a fixed seeded shuffle — the injected distribution shift.
func permuteColumns(ds *dataset.Dataset, seed uint64) *dataset.Dataset {
	perm := rng.New(seed).Perm(ds.Features())
	out := &dataset.Dataset{
		Name:    ds.Name + "-shifted",
		Classes: ds.Classes,
		X:       ds.X.Clone(),
		Y:       append([]int(nil), ds.Y...),
	}
	for i := 0; i < ds.Samples(); i++ {
		src := ds.X.Row(i)
		dst := out.X.Row(i)
		for j, pj := range perm {
			dst[j] = src[pj]
		}
	}
	return out
}

// RenderAblationDrift prints both cells' recovery curves and the bars.
func RenderAblationDrift(w io.Writer, res *DriftResult) {
	t := &metrics.Table{
		Title: fmt.Sprintf(
			"Drift recovery: feature-permutation shift on %s at full load (%d devices, service %v, %d post-shift rounds)",
			res.Dataset, res.Devices, res.Service, res.ShiftRounds),
		Headers: []string{"Cell", "Baseline", "Rounds (post-shift accuracy)", "Final", "p99", "Snapshots", "Regens"},
	}
	for _, c := range []DriftCell{res.Frozen, res.Online} {
		curve := ""
		for _, r := range c.Rounds {
			if !r.Shifted {
				continue
			}
			if curve != "" {
				curve += " "
			}
			curve += fmt.Sprintf("%.3f", r.Accuracy)
		}
		t.AddRow(
			c.Cell,
			fmt.Sprintf("%.3f", c.Baseline),
			curve,
			fmt.Sprintf("%.3f", c.Final),
			metrics.FmtDur(c.P99),
			fmt.Sprintf("%d", c.Stats.Snapshots),
			fmt.Sprintf("%d", c.Stats.Regens),
		)
	}
	fprintf(w, "%s\n", t)
	fprintf(w, "online recovery gap: %.3f (bar <= 0.020); frozen gap: %.3f (bar >= 0.080); online p99 %.2fx frozen (bar <= 1.20x)\n",
		res.RecoveryGap, res.FrozenGap, res.P99Ratio)
}
