package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/router"
	"hdcedge/internal/serve"
)

// The chaos ablation: a fixed open-loop request stream against a 4-node
// fleet behind the routing tier, with node-grade failures injected at the
// server boundary — one node crashed outright, one gray-slow (answering
// correctly at 8x latency, the failure mode liveness checks never catch).
// Three cells isolate what each resilience layer buys: the healthy fleet
// as the goodput reference, chaos with failover-only routing, and chaos
// with hedged requests on top. The acceptance bar is the hedged cell
// holding at least MinChaosGoodputFrac of the healthy fleet's goodput
// with a quarter of the fleet dead and another quarter gray.

// ChaosNodes is the fleet size behind the router.
const ChaosNodes = 4

// ChaosLoad is the offered load as a multiple of a single node's paced
// capacity — about 40% of the healthy fleet, comfortably above what two
// nodes plus change must absorb once chaos removes capacity.
const ChaosLoad = 1.5

// ChaosSpec is the injected failure set: node 0 crashed, node 1 gray-slow
// at 8x latency.
const ChaosSpec = "0:crash,1:slow=8"

// MinChaosGoodputFrac is the acceptance bar: hedged goodput under chaos
// as a fraction of the healthy fleet's.
const MinChaosGoodputFrac = 0.70

// ChaosPoint is one scenario cell.
type ChaosPoint struct {
	Scenario string
	Chaos    string // injected chaos spec, "" for the healthy baseline
	Hedged   bool

	Offered          int
	Completed        int
	Shed             int
	DeadlineExceeded int
	Failed           int

	Failovers     int
	HedgesFired   int
	HedgesWon     int
	HedgesWasted  int
	Transitions   int
	DownNodes     int // nodes the health machine holds down at the end
	DegradedNodes int

	P50, P99   time.Duration // router-observed completed latency
	GoodputRPS float64       // completions per wall-clock second
}

// Settled is the requests with exactly one recorded outcome.
func (p ChaosPoint) Settled() int {
	return p.Completed + p.Shed + p.DeadlineExceeded + p.Failed
}

// ChaosResult is the full scenario sweep.
type ChaosResult struct {
	Dataset string
	Nodes   int
	Service time.Duration
	Load    float64
	Points  []ChaosPoint
}

// AblationChaos runs the chaos scenario sweep.
func AblationChaos(cfg Config) (*ChaosResult, error) {
	p, cm, ds, err := overloadModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos model: %w", err)
	}
	const (
		service = 4 * time.Millisecond
		perNode = 100 // offered requests per fleet node
	)
	scenarios := []struct {
		name  string
		chaos string
		hedge bool
	}{
		{"healthy", "", false},
		{"chaos, failover only", ChaosSpec, false},
		{"chaos + hedging", ChaosSpec, true},
	}
	res := &ChaosResult{Dataset: "ISOLET", Nodes: ChaosNodes, Service: service, Load: ChaosLoad}
	for _, sc := range scenarios {
		pt, err := chaosCell(p, cm, ds, cfg, sc.name, sc.chaos, sc.hedge, service, perNode*ChaosNodes)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos cell %q: %w", sc.name, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// chaosCell drives the open-loop stream against one router scenario.
func chaosCell(p pipeline.Platform, cm *edgetpu.CompiledModel, ds *dataset.Dataset,
	cfg Config, name, chaosSpec string, hedge bool, service time.Duration, n int) (ChaosPoint, error) {
	plans, err := router.ParseChaos(chaosSpec, cfg.Seed+100)
	if err != nil {
		return ChaosPoint{}, err
	}
	nodes := make([]serve.Node, ChaosNodes)
	for i := range nodes {
		policy := pipeline.DefaultRecoveryPolicy()
		policy.Seed = cfg.Seed + 1 + uint64(i)*17 // decorrelate node jitter streams
		s, err := serve.New(p, cm, serve.Config{
			QueueCapacity:   4,
			DefaultDeadline: 250 * time.Millisecond,
			DrainDeadline:   2 * time.Second,
			Policy:          policy,
			PacePerInvoke:   service,
			PaceScale:       1,
		})
		if err != nil {
			return ChaosPoint{}, err
		}
		if plan, ok := plans[i]; ok {
			cn, err := router.NewChaosNode(s, i, plan)
			if err != nil {
				return ChaosPoint{}, err
			}
			nodes[i] = cn
		} else {
			nodes[i] = s
		}
	}
	r, err := router.New(nodes, router.Config{
		ProbeInterval:      25 * time.Millisecond,
		ProbeTimeout:       100 * time.Millisecond,
		ProbeFailThreshold: 2,
		DegradedLatency:    15 * time.Millisecond,
		ProbeFill:          overloadFill(ds, 0),
		// A fixed hedge delay of 3 service intervals: a request stalled on
		// the gray-slow node (~8 intervals) is re-issued long before the
		// stall resolves, while the healthy-path p99 never triggers it.
		Hedge: router.HedgeConfig{Enabled: hedge, Delay: 3 * service},
	})
	if err != nil {
		return ChaosPoint{}, err
	}

	// The same open-loop arrival stream for every scenario, at ChaosLoad x
	// one node's capacity, so chaos changes what the fleet can absorb, not
	// what is asked of it.
	interarrival := time.Duration(float64(service) / ChaosLoad)
	elapsed := serve.OpenLoop(n, serve.Staggered(1, 0, interarrival), func(i int) {
		// Sheds and deadline misses are tolerated outcomes under chaos;
		// hard failures surface in the report, checked below.
		r.Do(context.Background(), overloadFill(ds, i), nil)
	})
	if err := r.Drain(context.Background()); err != nil {
		return ChaosPoint{}, err
	}
	rep := r.Report()
	pt := ChaosPoint{
		Scenario:         name,
		Chaos:            chaosSpec,
		Hedged:           hedge,
		Offered:          rep.Submitted,
		Completed:        rep.Completed,
		Shed:             rep.Shed,
		DeadlineExceeded: rep.DeadlineExceeded,
		Failed:           rep.Failed + rep.Cancelled,
		Failovers:        rep.Failovers,
		HedgesFired:      rep.HedgesFired,
		HedgesWon:        rep.HedgesWon,
		HedgesWasted:     rep.HedgesWasted,
		Transitions:      rep.Transitions,
		P50:              rep.P50,
		P99:              rep.P99,
		GoodputRPS:       float64(rep.Completed) / elapsed.Seconds(),
	}
	for _, nr := range rep.Nodes {
		switch nr.State {
		case router.NodeDown:
			pt.DownNodes++
		case router.NodeDegraded:
			pt.DegradedNodes++
		}
	}
	return pt, nil
}

// RenderAblationChaos prints the sweep.
func RenderAblationChaos(w io.Writer, res *ChaosResult) {
	t := &metrics.Table{
		Title: fmt.Sprintf(
			"Chaos ablation: %d-node fleet behind the router, %.1fx single-node open-loop load on %s (service %v + 1x simulated cost; chaos %q)",
			res.Nodes, res.Load, res.Dataset, res.Service, ChaosSpec),
		Headers: []string{"Scenario", "Offered", "Completed", "Shed", "Deadline", "Failed",
			"Failovers", "Hedges", "Won", "Wasted", "Down", "Degraded", "p50", "p99", "Goodput"},
	}
	for _, pt := range res.Points {
		t.AddRow(
			pt.Scenario,
			fmt.Sprintf("%d", pt.Offered),
			fmt.Sprintf("%d", pt.Completed),
			fmt.Sprintf("%d", pt.Shed),
			fmt.Sprintf("%d", pt.DeadlineExceeded),
			fmt.Sprintf("%d", pt.Failed),
			fmt.Sprintf("%d", pt.Failovers),
			fmt.Sprintf("%d", pt.HedgesFired),
			fmt.Sprintf("%d", pt.HedgesWon),
			fmt.Sprintf("%d", pt.HedgesWasted),
			fmt.Sprintf("%d", pt.DownNodes),
			fmt.Sprintf("%d", pt.DegradedNodes),
			metrics.FmtDur(pt.P50),
			metrics.FmtDur(pt.P99),
			fmt.Sprintf("%.0f/s", pt.GoodputRPS),
		)
	}
	fprintf(w, "%s\n", t)
}
