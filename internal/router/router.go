package router

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hdcedge/internal/metrics"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// ErrNoNodes is returned when a request finds no routable node at all
// (every node excluded and nothing to fail over to).
var ErrNoNodes = errors.New("router: no routable nodes")

// HedgeConfig controls hedged requests: after a delay with no primary
// response, the router re-issues the request to a second node and takes
// the first success, cancelling the loser through its context.
type HedgeConfig struct {
	// Enabled turns hedging on. Off, the router fails over synchronously
	// only after a node errors — and a single-node router is then a pure
	// pass-through, preserving bit-identical timing.
	Enabled bool

	// Delay is the fixed hedge delay. Zero means adaptive: the router
	// tracks its own end-to-end latency and hedges at the live p99
	// (floored at hedgeMinDelay), so only the slowest ~1% of requests pay
	// the duplicate work.
	Delay time.Duration
}

const (
	// hedgeMinDelay floors the adaptive hedge delay, and is the whole
	// delay before any latency sample exists.
	hedgeMinDelay = time.Millisecond
	// probeRecoverThreshold is how many consecutive clean probes bring a
	// degraded or down node back up.
	probeRecoverThreshold = 2
	// degradedPenalty multiplies a degraded node's load in the
	// least-loaded pick, de-weighting it without excluding it.
	degradedPenalty = 4
)

// Config parameterizes the routing tier.
type Config struct {
	// ProbeInterval is the background health-probe period. Zero disables
	// the background prober.
	ProbeInterval time.Duration

	// ProbeTimeout bounds one probe request. Zero defaults to 50ms.
	ProbeTimeout time.Duration

	// ProbeFailThreshold is how many consecutive probe failures mark a
	// node down. Zero defaults to 3.
	ProbeFailThreshold int

	// DegradedLatency marks a node degraded when a successful probe takes
	// longer than this. Zero disables the latency criterion (the node's
	// own health signal still applies).
	DegradedLatency time.Duration

	// ProbeFill populates the probe request's input tensor. Required when
	// probing is used (the probe is a real request through the node).
	ProbeFill func(in *tensor.Tensor)

	// Hedge configures hedged requests.
	Hedge HedgeConfig

	// Metrics, when non-nil, is the registry the router streams its
	// telemetry into; nil gives the router a private registry.
	Metrics *metrics.Registry
}

// Validate checks the configuration for sanity.
func (c Config) Validate() error {
	if c.ProbeInterval < 0 || c.ProbeTimeout < 0 || c.DegradedLatency < 0 || c.Hedge.Delay < 0 {
		return errors.New("router: negative duration in config")
	}
	if c.ProbeFailThreshold < 0 {
		return errors.New("router: negative probe threshold")
	}
	if c.ProbeInterval > 0 && c.ProbeFill == nil {
		return errors.New("router: background probing needs ProbeFill")
	}
	return nil
}

func (c Config) probeTimeout() time.Duration {
	if c.ProbeTimeout > 0 {
		return c.ProbeTimeout
	}
	return 50 * time.Millisecond
}

func (c Config) probeFailThreshold() int {
	if c.ProbeFailThreshold > 0 {
		return c.ProbeFailThreshold
	}
	return 3
}

// Router fronts a fleet of serve.Nodes: it health-probes them, routes each
// request to the least-loaded routable node, fails over on node errors,
// and optionally hedges slow requests to a second node. Router itself
// implements serve.Node, so routing tiers compose.
type Router struct {
	cfg   Config
	nodes []*nodeSlot
	met   *routerMetrics

	evMu   sync.Mutex
	evSeq  int
	events []StateEvent

	stop     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
}

// New builds a router over the given nodes and starts the background
// prober when ProbeInterval is set.
func New(nodes []serve.Node, cfg Config) (*Router, error) {
	if len(nodes) == 0 {
		return nil, errors.New("router: no nodes")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Router{cfg: cfg, met: newRouterMetrics(reg, len(nodes)), stop: make(chan struct{})}
	for i, n := range nodes {
		r.nodes = append(r.nodes, &nodeSlot{node: n, id: i})
		r.met.nodeState[i].Set(int64(NodeUp))
	}
	if cfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.proberLoop()
	}
	return r, nil
}

// Metrics returns the router's live registry.
func (r *Router) Metrics() *metrics.Registry { return r.met.reg }

// Health aggregates the fleet verdicts into a serve.Health: all nodes up
// is healthy, no routable node is critical, anything in between is
// degraded.
func (r *Router) Health() serve.Health {
	up, routable := 0, 0
	for _, n := range r.nodes {
		switch n.getState() {
		case NodeUp:
			up++
			routable++
		case NodeDegraded:
			routable++
		}
	}
	switch {
	case up == len(r.nodes):
		return serve.Healthy
	case routable == 0:
		return serve.Critical
	}
	return serve.Degraded
}

// pick returns the least-loaded routable node not yet tried: down nodes
// are excluded, degraded ones participate with their load multiplied by
// the penalty. Ties break to the lowest index, keeping placement
// deterministic under equal load. When every untried node is down, pick
// falls back to the least-loaded untried node regardless of state —
// failing over to a probably-dead node beats refusing outright, and its
// error then settles the request honestly.
func (r *Router) pick(tried []bool) *nodeSlot {
	var best, fallback *nodeSlot
	var bestLoad, fbLoad float64
	for _, n := range r.nodes {
		if tried[n.id] {
			continue
		}
		l := n.load()
		if fallback == nil || l < fbLoad {
			fallback, fbLoad = n, l
		}
		if n.getState() == NodeDown {
			continue
		}
		if best == nil || l < bestLoad {
			best, bestLoad = n, l
		}
	}
	if best != nil {
		return best
	}
	return fallback
}

// Do submits one request through the routing tier and blocks until it
// settles, under the default tenant and model.
func (r *Router) Do(ctx context.Context, fill func(in *tensor.Tensor), consume func(out *tensor.Tensor)) (serve.Result, error) {
	return r.Submit(ctx, serve.Request{Fill: fill, Consume: consume})
}

// Submit routes one annotated request and blocks until it settles. The
// tenant and model annotations travel with the request through failover and
// hedging — every attempt, on whichever node, runs under the same tenancy.
// Exactly one outcome counter is incremented per call, whatever combination
// of failover and hedge attempts served it — the router-level accounting
// never double-counts a request.
func (r *Router) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	r.met.submitted.Inc()
	if r.draining.Load() {
		err := &serve.ShedError{Cause: serve.ShedDraining}
		r.met.shed.Inc()
		return serve.Result{}, err
	}
	start := time.Now()
	var res serve.Result
	var err error
	tried := make([]bool, len(r.nodes))
	if r.cfg.Hedge.Enabled && len(r.nodes) > 1 {
		res, err = r.routeHedged(ctx, req, tried)
	} else {
		res, err = r.routeSync(ctx, req, tried, false)
	}
	r.account(err, time.Since(start))
	return res, err
}

// account classifies one settled request into exactly one outcome bucket.
func (r *Router) account(err error, lat time.Duration) {
	var shed *serve.ShedError
	switch {
	case err == nil:
		r.met.completed.Inc()
		r.met.latency.Observe(lat)
	case errors.As(err, &shed):
		r.met.shed.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		r.met.deadlineExceeded.Inc()
	case errors.Is(err, context.Canceled):
		r.met.cancelled.Inc()
	default:
		r.met.failed.Inc()
	}
}

// routeSync is the non-hedged path: try the least-loaded node, and on a
// node error (with the caller's context still alive) fail over to the
// next-best untried node. failedBefore marks whether a prior attempt
// already failed, so the first pick here counts as a failover.
func (r *Router) routeSync(ctx context.Context, req serve.Request, tried []bool, failedBefore bool) (serve.Result, error) {
	var lastRes serve.Result
	var lastErr error
	for {
		n := r.pick(tried)
		if n == nil {
			if lastErr == nil {
				lastErr = ErrNoNodes
			}
			return lastRes, lastErr
		}
		if failedBefore {
			r.met.failovers.Inc()
		}
		tried[n.id] = true
		n.inflight.Add(1)
		res, err := n.node.Submit(ctx, req)
		n.inflight.Add(-1)
		if err == nil {
			return res, nil
		}
		lastRes, lastErr = res, err
		failedBefore = true
		if ctx.Err() != nil {
			// The caller is gone; another attempt could not settle usefully.
			return res, err
		}
	}
}

// hedgeAttempt is one node attempt's settled outcome.
type hedgeAttempt struct {
	hedge bool
	res   serve.Result
	err   error
}

// hedgeDelay is how long the primary attempt runs alone before a hedge
// fires: the configured fixed delay, or the router's live latency p99
// (floored at hedgeMinDelay) when adaptive.
func (r *Router) hedgeDelay() time.Duration {
	if r.cfg.Hedge.Delay > 0 {
		return r.cfg.Hedge.Delay
	}
	// An empty snapshot's quantile is zero, so the floor is also the
	// delay before any latency sample exists.
	return max(r.met.latency.Snapshot().Quantile(0.99), hedgeMinDelay)
}

// routeHedged runs the hedged path: launch the primary attempt, and if it
// has not settled within the hedge delay, launch a duplicate on a second
// node. First success wins; the loser is cancelled through the shared
// context and reaped in the background, where a discarded success counts
// as wasted hedge work. consume runs exactly once however many attempts
// complete. If every launched attempt fails while the caller's context is
// alive, the remaining nodes are tried synchronously.
func (r *Router) routeHedged(ctx context.Context, req serve.Request, tried []bool) (serve.Result, error) {
	actx, acancel := context.WithCancel(ctx)
	defer acancel()

	var cmu sync.Mutex
	consumed := false
	consume := req.Consume
	gated := func(out *tensor.Tensor) {
		cmu.Lock()
		defer cmu.Unlock()
		if consumed {
			return
		}
		consumed = true
		if consume != nil {
			consume(out)
		}
	}
	greq := req
	greq.Consume = gated

	results := make(chan hedgeAttempt, 2) // buffered: a loser never blocks
	launch := func(n *nodeSlot, hedge bool) {
		tried[n.id] = true
		n.inflight.Add(1)
		go func() {
			res, err := n.node.Submit(actx, greq)
			n.inflight.Add(-1)
			results <- hedgeAttempt{hedge: hedge, res: res, err: err}
		}()
	}

	primary := r.pick(tried)
	if primary == nil {
		return serve.Result{}, ErrNoNodes
	}
	launch(primary, false)
	outstanding := 1

	timer := time.NewTimer(r.hedgeDelay())
	defer timer.Stop()
	hedged := false

	var last hedgeAttempt
	for {
		select {
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			hn := r.pick(tried)
			if hn == nil {
				continue // nowhere to hedge; primary runs alone
			}
			r.met.hedgesFired.Inc()
			launch(hn, true)
			outstanding++
		case a := <-results:
			outstanding--
			if a.err == nil {
				acancel() // first success wins; cancel the loser
				if a.hedge {
					r.met.hedgesWon.Inc()
				}
				r.reap(outstanding, results)
				return a.res, nil
			}
			last = a
			if outstanding > 0 {
				continue // the other attempt may still succeed
			}
			if ctx.Err() != nil {
				return last.res, last.err
			}
			// Every launched attempt failed with the caller still waiting:
			// fall back to synchronous failover over the untried nodes.
			return r.routeSync(ctx, greq, tried, true)
		}
	}
}

// reap consumes the outcomes of attempts still in flight after a winner
// was chosen, off the request path; a loser that completed anyway is
// duplicate work, counted as a wasted hedge.
func (r *Router) reap(outstanding int, results chan hedgeAttempt) {
	if outstanding <= 0 {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for i := 0; i < outstanding; i++ {
			if a := <-results; a.err == nil {
				r.met.hedgesWasted.Inc()
			}
		}
	}()
}

// Drain stops the prober, refuses new submissions, drains every node in
// parallel, and waits for background reapers. It returns the first node
// drain error, if any.
func (r *Router) Drain(ctx context.Context) error {
	if !r.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(r.stop)
	errs := make([]error, len(r.nodes))
	var wg sync.WaitGroup
	for i, n := range r.nodes {
		wg.Add(1)
		go func(i int, n *nodeSlot) {
			defer wg.Done()
			errs[i] = n.node.Drain(ctx)
		}(i, n)
	}
	wg.Wait()
	r.wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close drains with no deadline beyond each node's own.
func (r *Router) Close() error { return r.Drain(context.Background()) }

var _ serve.Node = (*Router)(nil)
