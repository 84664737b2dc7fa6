// Package router fronts a fleet of in-process serving nodes with health
// probing, least-loaded routing, failover, and hedged requests. It treats
// each node as an opaque serve.Node, which is also the seam where chaos is
// injected: a ChaosNode interposes node-grade failures (crash, hang,
// gray-slow) at the server boundary without the server's cooperation, the
// same way edgetpu.FaultPlan injects device-grade faults below the runner.
package router

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"hdcedge/internal/metrics"
	"hdcedge/internal/rng"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// ChaosMode is the failure a ChaosNode inflicts on its wrapped node.
type ChaosMode int

const (
	// ChaosNone leaves the node untouched (pure pass-through).
	ChaosNone ChaosMode = iota
	// ChaosCrash makes the node refuse every request instantly with a
	// *CrashError — the process-died failure mode. Probes fail the same
	// way, so the router's health machine marks the node down.
	ChaosCrash
	// ChaosHang admits requests and never settles them: Do blocks until
	// the caller's context dies or the node is drained. This is the
	// worst-case gray failure — the node looks alive at admission but
	// strands every caller that touches it.
	ChaosHang
	// ChaosSlow serves correctly but stretches wall-clock latency by
	// Factor (sleeping the extra time after the inner call returns) — the
	// classic gray-slow node that health checks based on liveness alone
	// never catch.
	ChaosSlow
)

// String renders the mode as its spec keyword.
func (m ChaosMode) String() string {
	switch m {
	case ChaosNone:
		return "none"
	case ChaosCrash:
		return "crash"
	case ChaosHang:
		return "hang"
	case ChaosSlow:
		return "slow"
	}
	return fmt.Sprintf("chaos(%d)", int(m))
}

// ChaosPlan configures one node's injected failure. Like edgetpu.FaultPlan
// it is seeded: with Rate < 1 the per-request fault coin comes from a
// deterministic stream, so a chaos scenario replays bit-identically under
// the same seed.
type ChaosPlan struct {
	Mode   ChaosMode
	Factor float64 // ChaosSlow: wall-clock latency multiplier (> 1)
	Rate   float64 // fraction of requests hit (0 or 1 = all); hang/slow only
	Seed   uint64  // drives the Rate coin stream
}

// Validate checks the plan for sanity.
func (p ChaosPlan) Validate() error {
	switch p.Mode {
	case ChaosNone, ChaosCrash, ChaosHang:
	case ChaosSlow:
		if math.IsNaN(p.Factor) || p.Factor <= 1 {
			return fmt.Errorf("router: slow factor %g must exceed 1", p.Factor)
		}
	default:
		return fmt.Errorf("router: unknown chaos mode %d", int(p.Mode))
	}
	if math.IsNaN(p.Rate) || p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("router: chaos rate %g outside [0, 1]", p.Rate)
	}
	if p.Rate > 0 && p.Rate < 1 && p.Mode == ChaosCrash {
		return fmt.Errorf("router: crash is not rateable; a crashed node stays crashed")
	}
	return nil
}

// Enabled reports whether the plan injects anything.
func (p ChaosPlan) Enabled() bool { return p.Mode != ChaosNone }

// ChaosSpecError is a chaos-spec parse failure, pinned to the offending
// comma-separated segment so callers can report exactly what was rejected
// (a duplicate node index, a bad rate, an empty segment, ...).
type ChaosSpecError struct {
	Spec    string // the full spec being parsed
	Segment string // the offending segment, trimmed
	Reason  string
}

func (e *ChaosSpecError) Error() string {
	return fmt.Sprintf("router: chaos spec %q: segment %q: %s", e.Spec, e.Segment, e.Reason)
}

// ParseChaos builds per-node plans from a comma-separated spec such as
// "0:crash,2:slow=8,3:hang@0.5". Each segment is NODE:MODE with an
// optional =FACTOR (slow only) and an optional @RATE suffix making the
// fault intermittent. seed feeds each plan's coin stream, offset by node
// index so nodes fault independently. The empty string yields no plans;
// any malformed segment — including an empty one left by a stray comma —
// rejects the whole spec with a *ChaosSpecError.
func ParseChaos(spec string, seed uint64) (map[int]ChaosPlan, error) {
	plans := map[int]ChaosPlan{}
	if strings.TrimSpace(spec) == "" {
		return plans, nil
	}
	for _, field := range strings.Split(spec, ",") {
		seg := strings.TrimSpace(field)
		fail := func(reason string) error {
			return &ChaosSpecError{Spec: spec, Segment: seg, Reason: reason}
		}
		if seg == "" {
			return nil, fail("empty segment")
		}
		nodeStr, rest, found := strings.Cut(seg, ":")
		if !found {
			return nil, fail("lacks a NODE: prefix")
		}
		node, err := strconv.Atoi(strings.TrimSpace(nodeStr))
		if err != nil || node < 0 {
			return nil, fail(fmt.Sprintf("bad node index %q", strings.TrimSpace(nodeStr)))
		}
		if _, dup := plans[node]; dup {
			return nil, fail(fmt.Sprintf("duplicate plan for node %d", node))
		}
		p := ChaosPlan{Seed: seed + uint64(node)}
		if before, rateStr, hasRate := cutLast(rest, "@"); hasRate {
			rest = before
			if p.Rate, err = strconv.ParseFloat(strings.TrimSpace(rateStr), 64); err != nil {
				return nil, fail(fmt.Sprintf("bad rate %q", strings.TrimSpace(rateStr)))
			}
		}
		mode, factorStr, hasFactor := strings.Cut(rest, "=")
		switch strings.ToLower(strings.TrimSpace(mode)) {
		case "crash":
			p.Mode = ChaosCrash
		case "hang":
			p.Mode = ChaosHang
		case "slow":
			p.Mode = ChaosSlow
			p.Factor = 8
		default:
			return nil, fail(fmt.Sprintf("unknown mode %q (have crash, hang, slow)", strings.TrimSpace(mode)))
		}
		if hasFactor {
			if p.Factor, err = strconv.ParseFloat(strings.TrimSpace(factorStr), 64); err != nil {
				return nil, fail(fmt.Sprintf("bad factor %q", strings.TrimSpace(factorStr)))
			}
			if p.Mode != ChaosSlow {
				return nil, fail(fmt.Sprintf("=FACTOR only applies to slow, not %s", p.Mode))
			}
		}
		if err := p.Validate(); err != nil {
			return nil, fail(err.Error())
		}
		plans[node] = p
	}
	return plans, nil
}

// cutLast splits s on the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// CrashError is what a crashed node answers every request with.
type CrashError struct{ Node int }

func (e *CrashError) Error() string {
	return fmt.Sprintf("router: node %d crashed (chaos)", e.Node)
}

// ChaosNode wraps a serve.Node and inflicts its plan at the submit
// boundary. Health and Metrics pass through untouched — a gray-slow or
// hung node still self-reports healthy, which is exactly why the router
// needs active probes.
type ChaosNode struct {
	inner serve.Node
	plan  ChaosPlan
	id    int

	mu       sync.Mutex
	coin     *rng.RNG
	draining bool // set by Drain; hung requests are then refused
	hung     map[chan struct{}]struct{}
}

// NewChaosNode wraps inner with the plan. id labels crash errors and
// should be the node's router index.
func NewChaosNode(inner serve.Node, id int, plan ChaosPlan) (*ChaosNode, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &ChaosNode{
		inner: inner,
		plan:  plan,
		id:    id,
		coin:  rng.New(plan.Seed),
		hung:  map[chan struct{}]struct{}{},
	}, nil
}

// active decides, under the plan's seeded coin, whether this request is
// hit by the fault.
func (c *ChaosNode) active() bool {
	switch {
	case !c.plan.Enabled():
		return false
	case c.plan.Mode == ChaosCrash:
		return true // crashes are not rateable; dead stays dead
	case c.plan.Rate > 0 && c.plan.Rate < 1:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.coin.Float64() < c.plan.Rate
	}
	return true
}

// Do implements serve.Node with the plan's failure interposed.
func (c *ChaosNode) Do(ctx context.Context, fill func(in *tensor.Tensor), consume func(out *tensor.Tensor)) (serve.Result, error) {
	return c.Submit(ctx, serve.Request{Fill: fill, Consume: consume})
}

// Submit implements serve.Node with the plan's failure interposed; the
// request's tenancy annotations pass through to the wrapped node untouched.
func (c *ChaosNode) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	if !c.active() {
		return c.inner.Submit(ctx, req)
	}
	switch c.plan.Mode {
	case ChaosCrash:
		return serve.Result{}, &CrashError{Node: c.id}
	case ChaosHang:
		// Admit and never settle. The request is released only by its own
		// context or by Drain force-settling it — never by the node.
		release := make(chan struct{})
		c.mu.Lock()
		if c.draining {
			c.mu.Unlock()
			return serve.Result{}, &serve.ShedError{Cause: serve.ShedDraining}
		}
		c.hung[release] = struct{}{}
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			c.mu.Lock()
			delete(c.hung, release)
			c.mu.Unlock()
			return serve.Result{}, ctx.Err()
		case <-release:
			return serve.Result{}, &serve.DrainError{Stage: "chaos-hung"}
		}
	case ChaosSlow:
		start := time.Now()
		res, err := c.inner.Submit(ctx, req)
		extra := time.Duration(float64(time.Since(start)) * (c.plan.Factor - 1))
		// The result is already delivered (consume ran inside the inner
		// call); the gray-slowness is purely wall-clock, stalling the
		// caller the way a thermally-throttled or contended node would.
		select {
		case <-time.After(extra):
		case <-ctx.Done():
		}
		res.Latency += extra
		return res, err
	}
	return c.inner.Submit(ctx, req)
}

// Health passes through: chaos failures are deliberately invisible to
// self-reported health.
func (c *ChaosNode) Health() serve.Health { return c.inner.Health() }

// Metrics passes through to the wrapped node's registry.
func (c *ChaosNode) Metrics() *metrics.Registry { return c.inner.Metrics() }

// Drain force-settles every hung request with a typed DrainError, then
// drains the wrapped node. This guarantees Drain returns within the inner
// node's drain bound even when the plan strands requests forever.
func (c *ChaosNode) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	for release := range c.hung {
		close(release)
	}
	c.hung = map[chan struct{}]struct{}{}
	c.mu.Unlock()
	return c.inner.Drain(ctx)
}

var _ serve.Node = (*ChaosNode)(nil)
