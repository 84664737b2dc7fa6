package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdcedge/internal/metrics"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// fakeNode is a scriptable serve.Node: each Do consults script with the
// 1-based call number and either errors, blocks for a delay (or until the
// context dies), or completes, feeding consume a tensor holding the
// node's id so tests can see who served.
type fakeNode struct {
	id     int
	script func(call int64) (delay time.Duration, err error)
	health serve.Health
	reg    *metrics.Registry

	calls   atomic.Int64
	served  atomic.Int64
	drained atomic.Bool
}

func newFakeNode(id int, script func(int64) (time.Duration, error)) *fakeNode {
	return &fakeNode{id: id, script: script, reg: metrics.NewRegistry()}
}

func (f *fakeNode) Do(ctx context.Context, fill func(in *tensor.Tensor), consume func(out *tensor.Tensor)) (serve.Result, error) {
	return f.Submit(ctx, serve.Request{Fill: fill, Consume: consume})
}

func (f *fakeNode) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	call := f.calls.Add(1)
	if f.drained.Load() {
		return serve.Result{}, &serve.ShedError{Cause: serve.ShedDraining}
	}
	var delay time.Duration
	var err error
	if f.script != nil {
		delay, err = f.script(call)
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return serve.Result{}, ctx.Err()
		}
	}
	if err != nil {
		return serve.Result{}, err
	}
	if req.Consume != nil {
		out := tensor.New(tensor.Int32, 1)
		out.I32[0] = int32(f.id)
		req.Consume(out)
	}
	f.served.Add(1)
	return serve.Result{Device: f.id, Backend: "fake", Tenant: req.Tenant, Model: req.Model}, nil
}

func (f *fakeNode) Health() serve.Health       { return f.health }
func (f *fakeNode) Metrics() *metrics.Registry { return f.reg }
func (f *fakeNode) Drain(ctx context.Context) error {
	f.drained.Store(true)
	return nil
}

func instant(int64) (time.Duration, error) { return 0, nil }

func checkInvariant(t *testing.T, rep RouterReport) {
	t.Helper()
	if rep.Settled() != rep.Submitted {
		t.Fatalf("outcome partition broken: %d submitted but %d settled\n%s",
			rep.Submitted, rep.Settled(), rep)
	}
}

func TestRouterTieBreaksToLowestIndex(t *testing.T) {
	// Idle, equally-loaded, healthy nodes: every sequential request lands
	// on node 0 — placement is deterministic, not round-robin.
	a, b := newFakeNode(0, instant), newFakeNode(1, instant)
	r, err := New([]serve.Node{a, b}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 8; i++ {
		if _, err := r.Do(context.Background(), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.served.Load(); got != 8 {
		t.Fatalf("node 0 served %d of 8 (node 1: %d)", got, b.served.Load())
	}
}

func TestRouterLeastLoadedAvoidsBusyNode(t *testing.T) {
	// Node 0 is occupied by a blocked request; the next request must route
	// to idle node 1 even though 0 wins the tie-break.
	block := make(chan struct{})
	a := newFakeNode(0, func(int64) (time.Duration, error) { <-block; return 0, nil })
	b := newFakeNode(1, instant)
	r, err := New([]serve.Node{a, b}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	done := make(chan error, 1)
	go func() {
		_, err := r.Do(context.Background(), nil, nil)
		done <- err
	}()
	// Wait until the first request is in flight on node 0.
	for r.nodes[0].inflight.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := r.Do(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if b.served.Load() != 1 {
		t.Fatalf("second request did not avoid the busy node (node 1 served %d)", b.served.Load())
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, r.Report())
}

func TestRouterFailoverOnNodeError(t *testing.T) {
	// Node 0 answers every request with a crash error; the router must
	// fail over to node 1 and settle the request as one completion — the
	// failed attempt is visible only in the failover counter.
	a := newFakeNode(0, func(int64) (time.Duration, error) { return 0, &CrashError{Node: 0} })
	b := newFakeNode(1, instant)
	r, err := New([]serve.Node{a, b}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var got int32 = -1
	if _, err := r.Do(context.Background(), nil, func(out *tensor.Tensor) { got = out.I32[0] }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("request served by node %d, want failover to 1", got)
	}
	rep := r.Report()
	checkInvariant(t, rep)
	if rep.Completed != 1 || rep.Failed != 0 || rep.Failovers != 1 {
		t.Fatalf("failover accounting off:\n%s", rep)
	}
}

func TestRouterAllNodesFailing(t *testing.T) {
	// Every node errors: the request settles as exactly one failure,
	// after trying each node once.
	mk := func(id int) *fakeNode {
		return newFakeNode(id, func(int64) (time.Duration, error) { return 0, &CrashError{Node: id} })
	}
	nodes := []serve.Node{mk(0), mk(1), mk(2)}
	r, err := New(nodes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Do(context.Background(), nil, nil)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want the last node's crash error, got %v", err)
	}
	rep := r.Report()
	checkInvariant(t, rep)
	if rep.Failed != 1 || rep.Completed != 0 || rep.Failovers != 2 {
		t.Fatalf("all-fail accounting off:\n%s", rep)
	}
	for i, n := range nodes {
		if n.(*fakeNode).calls.Load() != 1 {
			t.Fatalf("node %d tried %d times, want exactly once", i, n.(*fakeNode).calls.Load())
		}
	}
}

func TestRouterHealthStateMachine(t *testing.T) {
	// Probe outcomes drive up → down → up with typed ordered events, and
	// a down node is excluded from routing.
	var failing atomic.Bool
	a := newFakeNode(0, func(int64) (time.Duration, error) {
		if failing.Load() {
			return 0, &CrashError{Node: 0}
		}
		return 0, nil
	})
	b := newFakeNode(1, instant)
	r, err := New([]serve.Node{a, b}, Config{
		ProbeFailThreshold: 2,
		ProbeFill:          func(*tensor.Tensor) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	r.probe()
	if states := nodeStates(r); states[0] != NodeUp || states[1] != NodeUp {
		t.Fatalf("healthy fleet probed to %v", states)
	}
	failing.Store(true)
	r.probe()
	if got := nodeStates(r)[0]; got != NodeUp {
		t.Fatalf("node 0 %s after one probe failure (threshold 2)", got)
	}
	r.probe()
	if got := nodeStates(r)[0]; got != NodeDown {
		t.Fatalf("node 0 %s after crossing the failure threshold", got)
	}
	// Down nodes are excluded: requests go to node 1 despite the tie-break.
	servedBefore := b.served.Load()
	if _, err := r.Do(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if b.served.Load() != servedBefore+1 {
		t.Fatal("request routed to a down node")
	}
	// Recovery: two clean probes bring it back.
	failing.Store(false)
	r.probe()
	if got := nodeStates(r)[0]; got != NodeDown {
		t.Fatalf("node 0 %s after one clean probe (recover threshold 2)", got)
	}
	r.probe()
	if got := nodeStates(r)[0]; got != NodeUp {
		t.Fatalf("node 0 %s after recovery threshold", got)
	}

	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("want 2 transitions (down, up), got %v", events)
	}
	if events[0].Node != 0 || events[0].From != NodeUp || events[0].To != NodeDown {
		t.Fatalf("first event off: %s", events[0])
	}
	if events[1].Node != 0 || events[1].From != NodeDown || events[1].To != NodeUp {
		t.Fatalf("second event off: %s", events[1])
	}
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("event sequence numbers off: %s, %s", events[0], events[1])
	}
	rep := r.Report()
	if rep.Transitions != 2 || rep.ProbeFailures != 2 || rep.ProbeSuccesses+rep.ProbeFailures != 10 {
		t.Fatalf("probe accounting off:\n%s", rep)
	}
	if rep.Nodes[0].State != NodeUp {
		t.Fatalf("report state off:\n%s", rep)
	}
	if g := r.Metrics().Snapshot().Gauges[`hdc_router_node_state{node="0"}`]; g != int64(NodeUp) {
		t.Fatalf("node state gauge %d, want up", g)
	}
}

func TestRouterDegradedNodeDeWeighted(t *testing.T) {
	// A slow-probing node goes degraded (not down) and loses the idle
	// tie-break to a healthy peer, but remains routable.
	a := newFakeNode(0, func(int64) (time.Duration, error) { return 3 * time.Millisecond, nil })
	b := newFakeNode(1, instant)
	r, err := New([]serve.Node{a, b}, Config{
		DegradedLatency: time.Millisecond,
		ProbeFill:       func(*tensor.Tensor) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.probe()
	if got := nodeStates(r)[0]; got != NodeDegraded {
		t.Fatalf("slow node %s, want degraded", got)
	}
	if h := r.Health(); h != serve.Degraded {
		t.Fatalf("aggregate health %s with a degraded node", h)
	}
	servedBefore := b.served.Load() // the probe itself served one request
	for i := 0; i < 4; i++ {
		if _, err := r.Do(context.Background(), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.served.Load() - servedBefore; got != 4 {
		t.Fatalf("degraded node still wins placement: node 1 served %d of 4", got)
	}
}

func TestRouterHedgeWinsOverStall(t *testing.T) {
	// Node 0 stalls far beyond the hedge delay; the hedge on node 1 wins,
	// consume runs exactly once, and the stalled loser (cancelled, then
	// erroring) is never counted as a completion.
	a := newFakeNode(0, func(int64) (time.Duration, error) { return time.Second, nil })
	b := newFakeNode(1, instant)
	r, err := New([]serve.Node{a, b}, Config{
		Hedge: HedgeConfig{Enabled: true, Delay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	var consumes atomic.Int64
	var got int32 = -1
	start := time.Now()
	res, err := r.Do(context.Background(), nil, func(out *tensor.Tensor) {
		consumes.Add(1)
		got = out.I32[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("hedged request took %v; the stalled primary was not overtaken", elapsed)
	}
	if got != 1 || res.Device != 1 {
		t.Fatalf("winner was node %d / result device %d, want the hedge on 1", got, res.Device)
	}
	if err := r.Close(); err != nil { // waits for the reaper
		t.Fatal(err)
	}
	if consumes.Load() != 1 {
		t.Fatalf("consume ran %d times, want exactly once", consumes.Load())
	}
	rep := r.Report()
	checkInvariant(t, rep)
	if rep.Completed != 1 || rep.HedgesFired != 1 || rep.HedgesWon != 1 {
		t.Fatalf("hedge accounting off:\n%s", rep)
	}
	// The cancelled primary returned ctx.Err, so it is not wasted work.
	if rep.HedgesWasted != 0 {
		t.Fatalf("cancelled loser miscounted as wasted:\n%s", rep)
	}
}

func TestRouterHedgeWastedWhenBothComplete(t *testing.T) {
	// Node 0 is slow but uncancellable-fast-enough to finish anyway: both
	// attempts complete, one result is discarded, consume still runs once
	// and completed still counts one.
	block := make(chan struct{})
	a := newFakeNode(0, func(int64) (time.Duration, error) {
		<-block // ignores ctx: completes regardless of cancellation
		return 0, nil
	})
	b := newFakeNode(1, instant)
	r, err := New([]serve.Node{a, b}, Config{
		Hedge: HedgeConfig{Enabled: true, Delay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	var consumes atomic.Int64
	if _, err := r.Do(context.Background(), nil, func(*tensor.Tensor) { consumes.Add(1) }); err != nil {
		t.Fatal(err)
	}
	close(block) // let the loser finish now
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if consumes.Load() != 1 {
		t.Fatalf("consume ran %d times, want exactly once", consumes.Load())
	}
	rep := r.Report()
	checkInvariant(t, rep)
	if rep.Completed != 1 {
		t.Fatalf("duplicate completion double-counted:\n%s", rep)
	}
	if rep.HedgesFired != 1 || rep.HedgesWon != 1 || rep.HedgesWasted != 1 {
		t.Fatalf("wasted-hedge accounting off:\n%s", rep)
	}
}

func TestRouterHedgeFallsBackWhenBothFail(t *testing.T) {
	// Both hedge attempts fail; the router must still settle the request
	// by synchronous failover to the remaining node — one completion, no
	// double counts.
	crash := func(id int) func(int64) (time.Duration, error) {
		return func(int64) (time.Duration, error) { return time.Millisecond, &CrashError{Node: id} }
	}
	a, b := newFakeNode(0, crash(0)), newFakeNode(1, crash(1))
	c := newFakeNode(2, instant)
	r, err := New([]serve.Node{a, b, c}, Config{
		Hedge: HedgeConfig{Enabled: true, Delay: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got int32 = -1
	if _, err := r.Do(context.Background(), nil, func(out *tensor.Tensor) { got = out.I32[0] }); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("request served by node %d, want fallback to 2", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	checkInvariant(t, rep)
	if rep.Completed != 1 || rep.Failed != 0 {
		t.Fatalf("fallback accounting off:\n%s", rep)
	}
}

func TestRouterHedgeAccountingUnderLoad(t *testing.T) {
	// A concurrent burst over a jittery fleet with hedging on: at drain,
	// every submitted request settled exactly once and each completion
	// consumed exactly once — the structural no-double-count guarantee.
	mk := func(id int) *fakeNode {
		return newFakeNode(id, func(call int64) (time.Duration, error) {
			// Every 7th call stalls long enough to trigger a hedge.
			if call%7 == 0 {
				return 20 * time.Millisecond, nil
			}
			// Every 11th errors, driving failovers.
			if call%11 == 0 {
				return 0, fmt.Errorf("fake node %d transient", id)
			}
			return 200 * time.Microsecond, nil
		})
	}
	r, err := New([]serve.Node{mk(0), mk(1), mk(2), mk(3)}, Config{
		Hedge: HedgeConfig{Enabled: true, Delay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	var wg sync.WaitGroup
	var consumes atomic.Int64
	var completions atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.Do(context.Background(), nil, func(*tensor.Tensor) { consumes.Add(1) })
			if err == nil {
				completions.Add(1)
			}
		}()
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	checkInvariant(t, rep)
	if rep.Submitted != n {
		t.Fatalf("submitted %d, want %d", rep.Submitted, n)
	}
	if int64(rep.Completed) != completions.Load() {
		t.Fatalf("router counted %d completions, callers saw %d", rep.Completed, completions.Load())
	}
	if consumes.Load() != completions.Load() {
		t.Fatalf("%d consumes for %d completions — exactly-once broken", consumes.Load(), completions.Load())
	}
	if rep.HedgesFired == 0 {
		t.Fatalf("stall script fired no hedges:\n%s", rep)
	}
}

func TestRouterDrainShedsNewWork(t *testing.T) {
	a := newFakeNode(0, instant)
	r, err := New([]serve.Node{a}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = r.Do(context.Background(), nil, nil)
	var shed *serve.ShedError
	if !errors.As(err, &shed) || shed.Cause != serve.ShedDraining {
		t.Fatalf("post-drain Do returned %v, want draining shed", err)
	}
	checkInvariant(t, r.Report())
}

// nodeStates returns each node's current state, indexed by node.
func nodeStates(r *Router) []NodeState {
	out := make([]NodeState, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.getState()
	}
	return out
}
