package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hdcedge/internal/backend/hostcpu"
	"hdcedge/internal/backend/tpu"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/serve"
)

// The fleet-composition sweep: hold the offered request rate fixed and vary
// what the worker pool is made of — all accelerators, all host CPUs, and
// mixes — to measure what heterogeneous capacity buys at saturation. Every
// composition faces the same open-loop arrival stream (paced against a
// 4-worker reference fleet at FleetLoad× capacity), so an undersized fleet
// saturates and sheds while a larger or mixed one converts the same demand
// into completions. Worker occupancy is the flat service pace plus the
// invoke's own simulated cost, so the accelerator/host cost asymmetry shows
// up in the throughput split, not just the timing columns.

// FleetCompositions is the swept worker-pool makeup, including the 2-TPU
// baseline the mixed fleets are judged against.
var FleetCompositions = []string{"tpu=2", "tpu=4", "tpu=3,cpu=1", "tpu=2,cpu=2", "cpu=4"}

// FleetLoad is the offered load as a multiple of the 4-worker reference
// fleet's capacity — past saturation for the 2-worker baseline.
const FleetLoad = 2.0

// fleetRefWorkers is the reference pool size the arrival rate is paced
// against, independent of each cell's actual fleet.
const fleetRefWorkers = 4

// FleetPoint is one composition cell.
type FleetPoint struct {
	Fleet   string // canonical composition, e.g. "tpu=2,cpu=2"
	Workers int

	LoadCounts
	TPURequests  int     // completions served by accelerator workers
	CPURequests  int     // completions served by host-CPU workers
	CompletedRPS float64 // completions per wall-clock second
}

// FleetResult is the full composition sweep.
type FleetResult struct {
	Dataset string
	Service time.Duration // flat per-invoke pacing component
	Load    float64       // offered load vs the reference fleet
	Points  []FleetPoint
}

// AblationFleet sweeps fleet composition at a fixed offered load.
func AblationFleet(cfg Config) (*FleetResult, error) {
	p, cm, ds, err := overloadModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: fleet model: %w", err)
	}
	// The flat pace dominates occupancy so capacity is close to
	// workers/service for every class; PaceScale 1 adds each invoke's own
	// simulated cost on top, keeping the accelerator/host asymmetry honest
	// without letting OS-timer noise swamp the comparison.
	const (
		service   = 4 * time.Millisecond
		queue     = 4
		perWorker = 150 // offered requests per reference worker
	)
	policy := pipeline.DefaultRecoveryPolicy()
	policy.Seed = cfg.Seed + 1
	res := &FleetResult{Dataset: "ISOLET", Service: service, Load: FleetLoad}
	n := perWorker * fleetRefWorkers
	for _, spec := range FleetCompositions {
		fleet, err := serve.ParseFleet(spec)
		if err != nil {
			return nil, err
		}
		pt, err := fleetCell(p, cm, ds, serve.Config{
			Fleet:           fleet,
			QueueCapacity:   queue,
			DefaultDeadline: 250 * time.Millisecond,
			DrainDeadline:   5 * time.Second,
			Policy:          policy,
			PacePerInvoke:   service,
			PaceScale:       1,
		}, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet %q: %w", spec, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// fleetCell drives the fixed open-loop arrival stream against one fleet.
func fleetCell(p pipeline.Platform, cm *edgetpu.CompiledModel, ds *dataset.Dataset,
	scfg serve.Config, n int) (FleetPoint, error) {
	s, err := serve.New(p, cm, scfg)
	if err != nil {
		return FleetPoint{}, err
	}
	// The arrival rate is paced against the reference fleet, not this cell's
	// fleet: every composition faces the same demand.
	workers := len(scfg.Fleet)
	interarrival := time.Duration(float64(scfg.PacePerInvoke) / (fleetRefWorkers * FleetLoad))
	at := serve.Staggered(workers, scfg.PacePerInvoke/time.Duration(workers), interarrival)
	elapsed := serve.OpenLoop(n, at, func(i int) {
		// Sheds and deadline misses are expected at saturation; hard
		// failures surface in the report's Failed count, checked below.
		s.Do(context.Background(), overloadFill(ds, i), nil)
	})
	if err := s.Drain(context.Background()); err != nil {
		return FleetPoint{}, err
	}
	rep := s.Report()
	if rep.Failed > 0 {
		return FleetPoint{}, fmt.Errorf("%d requests failed outright", rep.Failed)
	}
	pt := FleetPoint{
		Fleet:        scfg.Fleet.String(),
		Workers:      workers,
		LoadCounts:   loadCounts(rep),
		CompletedRPS: float64(rep.Completed) / elapsed.Seconds(),
	}
	if b, ok := rep.Backend(tpu.Name); ok {
		pt.TPURequests = b.Requests
	}
	if b, ok := rep.Backend(hostcpu.Name); ok {
		pt.CPURequests = b.Requests
	}
	return pt, nil
}

// RenderAblationFleet prints the sweep.
func RenderAblationFleet(w io.Writer, res *FleetResult) {
	t := &metrics.Table{
		Title: fmt.Sprintf(
			"Fleet composition: fixed %.1fx open-loop load vs a %d-worker reference on %s (service %v + 1x simulated cost)",
			res.Load, fleetRefWorkers, res.Dataset, res.Service),
		Headers: []string{"Fleet", "Workers", "Offered", "Admitted", "Shed", "Deadline", "Completed", "TPU", "CPU", "p50", "p99", "Goodput"},
	}
	for _, pt := range res.Points {
		t.AddRow(
			pt.Fleet,
			fmt.Sprintf("%d", pt.Workers),
			fmt.Sprintf("%d", pt.Offered),
			fmt.Sprintf("%d", pt.Admitted),
			fmt.Sprintf("%d", pt.Shed),
			fmt.Sprintf("%d", pt.DeadlineExceeded),
			fmt.Sprintf("%d", pt.Completed),
			fmt.Sprintf("%d", pt.TPURequests),
			fmt.Sprintf("%d", pt.CPURequests),
			metrics.FmtDur(pt.P50),
			metrics.FmtDur(pt.P99),
			fmt.Sprintf("%.0f/s", pt.CompletedRPS),
		)
	}
	fprintf(w, "%s\n", t)
}
