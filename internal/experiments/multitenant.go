package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/rng"
	"hdcedge/internal/serve"
)

// The multi-tenant ablation measures the two co-design claims of the
// tenancy layer against their degenerate baselines:
//
// Part A (isolation): a high-priority "prod" tenant offered 1.5x the
// fleet's capacity is flooded by a "batch" tenant at 4x prod's rate. With
// strict priority + per-tenant quotas, batch work only runs in prod's idle
// gaps and a prod arrival waits at most one residual batch service — its
// p99 (dominated by its own quota-bounded queueing) must degrade by no
// more than 20% versus running alone. The fair-share cell (same flood, no
// priority edge) shows what the isolation buys: WFQ grants each tenant
// half the capacity, so prod — which demands 150% of it — loses roughly
// half its completions to the flood.
//
// Part B (parameter memory): six equal-footprint models share a device
// whose budget holds three — a working set 2x the on-chip memory — under a
// rotating hot set (90% of traffic concentrates on three models, and the
// hot trio shifts twice mid-run). A closed-loop client drives the same
// seeded request stream against LRU eviction and against the pin-first
// baseline (whatever fit first stays resident forever). Misses pay the
// model's deterministic re-setup, billed into the invoke and paced into
// wall-clock, so goodput is the figure of merit: LRU must deliver at least
// 1.3x the pin-first goodput.

// TenantPoint is one isolation cell.
type TenantPoint struct {
	Cell string // "alone", "priority+quota", "fair-share"

	ProdOffered    int
	ProdCompleted  int
	ProdShed       int
	ProdP50        time.Duration
	ProdP99        time.Duration
	BatchCompleted int
	BatchShed      int
}

// MemPoint is one eviction-policy cell.
type MemPoint struct {
	Policy    string // "lru", "pin-first"
	Requests  int
	Completed int
	Hits      int
	Misses    int
	Evictions int
	SwapTime  time.Duration // total re-setup billed
	Elapsed   time.Duration
	Goodput   float64 // completions per wall-clock second
}

// MultiTenantResult is the full ablation.
type MultiTenantResult struct {
	Isolation []TenantPoint
	Memory    []MemPoint

	// P99Degradation is the flooded-cell prod p99 over the alone-cell prod
	// p99 (1.0 = no degradation). The acceptance bar is <= 1.2.
	P99Degradation float64

	// GoodputRatio is LRU goodput over pin-first goodput on the same
	// request stream. The acceptance bar is >= 1.3.
	GoodputRatio float64
}

// Isolation-cell load shape: two paced workers; prod offers 1.5x the
// fleet's capacity (so its own quota-bounded queueing dominates its p99),
// and the flood offers 4x prod's rate on top.
const (
	mtService   = 4 * time.Millisecond
	mtWorkers   = 2
	mtProdLoad  = 1.5
	mtFloodMult = 4
	mtProdReqs  = 240
)

// AblationMultiTenant runs both parts of the tenancy ablation.
func AblationMultiTenant(cfg Config) (*MultiTenantResult, error) {
	p, cm, ds, err := overloadModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: multitenant model: %w", err)
	}
	res := &MultiTenantResult{}

	prod := serve.TenantSpec{Name: "prod", Weight: 4, Priority: 1, Quota: 16}
	batch := serve.TenantSpec{Name: "batch", Weight: 1, Priority: 0, Quota: 16}
	fairProd, fairBatch := prod, batch
	fairProd.Priority, fairProd.Weight = 0, 1
	cells := []struct {
		name    string
		tenants []serve.TenantSpec
		flood   bool
	}{
		{"alone", []serve.TenantSpec{prod, batch}, false},
		{"priority+quota", []serve.TenantSpec{prod, batch}, true},
		{"fair-share", []serve.TenantSpec{fairProd, fairBatch}, true},
	}
	for _, cell := range cells {
		pt, err := isolationCell(p, cm, ds, cfg, cell.name, cell.tenants, cell.flood)
		if err != nil {
			return nil, fmt.Errorf("experiments: multitenant cell %q: %w", cell.name, err)
		}
		res.Isolation = append(res.Isolation, pt)
	}
	alone, guarded := res.Isolation[0], res.Isolation[1]
	if alone.ProdP99 > 0 {
		res.P99Degradation = float64(guarded.ProdP99) / float64(alone.ProdP99)
	}

	reg, err := multitenantRegistry(p, ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: multitenant registry: %w", err)
	}
	for _, policy := range []registry.EvictPolicy{registry.EvictLRU, registry.PinFirst} {
		pt, err := memoryCell(p, reg, ds, cfg, policy)
		if err != nil {
			return nil, fmt.Errorf("experiments: multitenant memory %s: %w", policy, err)
		}
		res.Memory = append(res.Memory, pt)
	}
	if res.Memory[1].Goodput > 0 {
		res.GoodputRatio = res.Memory[0].Goodput / res.Memory[1].Goodput
	}
	return res, nil
}

// isolationCell drives the prod stream (and optionally the batch flood)
// against one tenant configuration and reads back prod's experience.
func isolationCell(p pipeline.Platform, cm *edgetpu.CompiledModel, ds *dataset.Dataset,
	cfg Config, name string, tenants []serve.TenantSpec, flood bool) (TenantPoint, error) {
	policy := pipeline.DefaultRecoveryPolicy()
	policy.Seed = cfg.Seed + 1
	s, err := serve.New(p, cm, serve.Config{
		Fleet:         serve.TPUFleet(mtWorkers),
		Policy:        policy,
		PacePerInvoke: mtService,
		DrainDeadline: 10 * time.Second,
		Tenants:       tenants,
	})
	if err != nil {
		return TenantPoint{}, err
	}
	offer := func(tenant string, n int, interarrival time.Duration) {
		serve.OpenLoop(n, serve.Staggered(1, 0, interarrival), func(i int) {
			// Quota sheds are the mechanism under test, not a failure.
			s.Submit(context.Background(), serve.Request{Tenant: tenant, Fill: overloadFill(ds, i)})
		})
	}
	perWorker := float64(mtService) / mtWorkers
	prodGap := time.Duration(perWorker / mtProdLoad)
	var wg sync.WaitGroup
	if flood {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offer("batch", mtProdReqs*mtFloodMult, prodGap/mtFloodMult)
		}()
	}
	offer("prod", mtProdReqs, prodGap)
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		return TenantPoint{}, err
	}
	rep := s.Report()
	if rep.Failed > 0 {
		return TenantPoint{}, fmt.Errorf("%d requests failed outright", rep.Failed)
	}
	pr, _ := rep.Tenant("prod")
	ba, _ := rep.Tenant("batch")
	return TenantPoint{
		Cell:           name,
		ProdOffered:    pr.Admitted + pr.Shed,
		ProdCompleted:  pr.Completed,
		ProdShed:       pr.Shed,
		ProdP50:        pr.Latency.Quantile(0.5),
		ProdP99:        pr.Latency.Quantile(0.99),
		BatchCompleted: ba.Completed,
		BatchShed:      ba.Shed,
	}, nil
}

// Memory-cell shape: six models, a budget that holds three, a rotating
// three-model hot set taking 90% of a closed-loop single-client stream.
const (
	mtModels   = 6
	mtMemReqs  = 600
	mtHotShare = 0.9
)

// multitenantRegistry trains and registers the six equal-footprint models.
func multitenantRegistry(p pipeline.Platform, ds *dataset.Dataset, cfg Config) (*registry.Registry, error) {
	reg := registry.New()
	for i := 0; i < mtModels; i++ {
		model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
			Dim: cfg.FunctionalDim, Epochs: cfg.Epochs, LearningRate: 1,
			Nonlinear: true, Seed: cfg.Seed + uint64(i),
		})
		if err != nil {
			return nil, err
		}
		cm, err := pipeline.CompileInference(p, model, ds, 1)
		if err != nil {
			return nil, err
		}
		if _, err := reg.Register(fmt.Sprintf("m%d", i), cm, nil); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// mtModelStream returns the seeded request-to-model schedule: three phases,
// each concentrating mtHotShare of traffic on its own three-model hot set.
func mtModelStream(seed uint64) []string {
	hotSets := [][]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 0}}
	r := rng.New(seed)
	models := make([]string, mtMemReqs)
	phaseLen := mtMemReqs / len(hotSets)
	for i := range models {
		phase := i / phaseLen
		if phase >= len(hotSets) {
			phase = len(hotSets) - 1
		}
		var m int
		if r.Float64() < mtHotShare {
			hot := hotSets[phase]
			m = hot[r.Intn(len(hot))]
		} else {
			m = r.Intn(mtModels)
		}
		models[i] = fmt.Sprintf("m%d", m)
	}
	return models
}

// memoryCell replays the seeded stream closed-loop (one client, one device)
// under one eviction policy. Pacing scales with each invoke's simulated
// total — which includes the re-setup billed on a miss — so residency
// behavior is what separates the cells' wall-clock goodput.
func memoryCell(p pipeline.Platform, reg *registry.Registry, ds *dataset.Dataset,
	cfg Config, policy registry.EvictPolicy) (MemPoint, error) {
	e0, _ := reg.Get("m0")
	rpolicy := pipeline.DefaultRecoveryPolicy()
	rpolicy.Seed = cfg.Seed + 1
	s, err := serve.New(p, nil, serve.Config{
		Policy:        rpolicy,
		Registry:      reg,
		MemBudget:     3*e0.Footprint + e0.Footprint/5,
		MemPolicy:     policy,
		PacePerInvoke: 100 * time.Microsecond,
		PaceScale:     1,
		DrainDeadline: 30 * time.Second,
	})
	if err != nil {
		return MemPoint{}, err
	}
	stream := mtModelStream(cfg.Seed + 99)
	elapsed, err := serve.ClosedLoop(1, len(stream), func(i int) error {
		_, err := s.Submit(context.Background(), serve.Request{Model: stream[i], Fill: overloadFill(ds, i)})
		return err
	})
	if err != nil {
		return MemPoint{}, err
	}
	if err := s.Drain(context.Background()); err != nil {
		return MemPoint{}, err
	}
	rep := s.Report()
	pt := MemPoint{
		Policy:    policy.String(),
		Requests:  len(stream),
		Completed: rep.Completed,
		Elapsed:   elapsed,
		Goodput:   float64(rep.Completed) / elapsed.Seconds(),
	}
	for _, ms := range rep.Memory {
		pt.Hits += ms.Hits
		pt.Misses += ms.Misses
		pt.Evictions += ms.Evictions
		pt.SwapTime += ms.SwapTime
	}
	return pt, nil
}

// RenderAblationMultiTenant prints both parts.
func RenderAblationMultiTenant(w io.Writer, res *MultiTenantResult) {
	iso := &metrics.Table{
		Title: fmt.Sprintf(
			"Tenant isolation: prod at %.1fx capacity, batch flood at %dx prod rate (%d workers, service %v)",
			mtProdLoad, mtFloodMult, mtWorkers, mtService),
		Headers: []string{"Cell", "ProdOffered", "ProdDone", "ProdShed", "Prod p50", "Prod p99", "BatchDone", "BatchShed"},
	}
	for _, pt := range res.Isolation {
		iso.AddRow(
			pt.Cell,
			fmt.Sprintf("%d", pt.ProdOffered),
			fmt.Sprintf("%d", pt.ProdCompleted),
			fmt.Sprintf("%d", pt.ProdShed),
			metrics.FmtDur(pt.ProdP50),
			metrics.FmtDur(pt.ProdP99),
			fmt.Sprintf("%d", pt.BatchCompleted),
			fmt.Sprintf("%d", pt.BatchShed),
		)
	}
	fprintf(w, "%s\n", iso)
	fprintf(w, "prod p99 under flood: %.2fx alone (bar <= 1.20x)\n\n", res.P99Degradation)

	mem := &metrics.Table{
		Title: fmt.Sprintf(
			"Parameter-memory eviction: %d models, budget holds 3, rotating 3-model hot set (%.0f%% of %d closed-loop requests)",
			mtModels, mtHotShare*100, mtMemReqs),
		Headers: []string{"Policy", "Requests", "Completed", "Hits", "Misses", "Evictions", "Swap", "Elapsed", "Goodput"},
	}
	for _, pt := range res.Memory {
		mem.AddRow(
			pt.Policy,
			fmt.Sprintf("%d", pt.Requests),
			fmt.Sprintf("%d", pt.Completed),
			fmt.Sprintf("%d", pt.Hits),
			fmt.Sprintf("%d", pt.Misses),
			fmt.Sprintf("%d", pt.Evictions),
			metrics.FmtDur(pt.SwapTime),
			metrics.FmtDur(pt.Elapsed),
			fmt.Sprintf("%.0f/s", pt.Goodput),
		)
	}
	fprintf(w, "%s\n", mem)
	fprintf(w, "lru goodput: %.2fx pin-first (bar >= 1.30x)\n", res.GoodputRatio)
}
