package router

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdcedge/internal/serve"
)

// NodeState is the router's verdict on one node, produced by folding the
// node's self-reported health (breaker-derived, from PR-5's metrics
// snapshots) together with active probe outcomes. The distinction from
// serve.Health matters: a gray-slow or crashed node self-reports healthy
// or is unreachable — only the probe path sees that.
type NodeState int32

const (
	// NodeUp: probes succeed promptly and the node self-reports healthy.
	NodeUp NodeState = iota
	// NodeDegraded: alive but impaired — probe latency above the degraded
	// threshold, or the node's own breakers report trouble. Routable, but
	// de-weighted.
	NodeDegraded
	// NodeDown: consecutive probe failures crossed the threshold. Excluded
	// from routing until probes recover.
	NodeDown
)

// String renders the state.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDegraded:
		return "degraded"
	case NodeDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// StateEvent is one typed node state transition, in observation order.
type StateEvent struct {
	Seq      int       // global transition sequence number (from 1)
	Node     int       // node index
	From, To NodeState // the transition
	Reason   string    // what the prober observed
	At       time.Time
}

// String renders the event.
func (e StateEvent) String() string {
	return fmt.Sprintf("#%d node %d %s→%s (%s)", e.Seq, e.Node, e.From, e.To, e.Reason)
}

// nodeSlot is the router's per-node bookkeeping: the node itself, its
// routed-load counter, and the health machine's state.
type nodeSlot struct {
	node serve.Node
	id   int

	inflight atomic.Int64 // requests routed here and not yet settled

	mu        sync.Mutex // guards the health fields below
	state     NodeState
	failures  int  // consecutive probe failures
	successes int  // consecutive probe successes since last failure
	probing   bool // an active probe is in flight; skip this tick
}

// load is the routing weight: live in-flight count, multiplied by the
// degraded penalty when the health machine has de-weighted the node.
func (n *nodeSlot) load() float64 {
	l := float64(n.inflight.Load())
	if n.getState() == NodeDegraded {
		return (l + 1) * degradedPenalty
	}
	return l
}

// getState reads the state without the mutex (it is only ever written
// under n.mu via setStateLocked's atomic store).
func (n *nodeSlot) getState() NodeState {
	return NodeState(atomic.LoadInt32((*int32)(&n.state)))
}

func (n *nodeSlot) setStateLocked(s NodeState) {
	atomic.StoreInt32((*int32)(&n.state), int32(s))
}

// probe issues one active probe against every node (in parallel, skipping
// nodes with a probe already in flight) and folds the outcomes into the
// state machines. Called by the background prober each tick, and by tests
// that drive the state machine one round at a time.
func (r *Router) probe() {
	var wg sync.WaitGroup
	for _, n := range r.nodes {
		n.mu.Lock()
		if n.probing {
			n.mu.Unlock()
			continue
		}
		n.probing = true
		n.mu.Unlock()
		wg.Add(1)
		go func(n *nodeSlot) {
			defer wg.Done()
			r.probeOne(n)
		}(n)
	}
	wg.Wait()
}

// probeOne runs one probe request against n and applies the outcome.
func (r *Router) probeOne(n *nodeSlot) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.probeTimeout())
	start := time.Now()
	_, err := n.node.Do(ctx, r.cfg.ProbeFill, nil)
	lat := time.Since(start)
	cancel()
	r.applyProbe(n, err, lat)
}

// applyProbe advances n's health machine with one probe outcome. The
// transition decision and the event emission happen under n.mu, so each
// node has a single writer and events are totally ordered per node.
func (r *Router) applyProbe(n *nodeSlot, err error, lat time.Duration) {
	inner := n.node.Health()
	n.mu.Lock()
	defer func() {
		n.probing = false
		n.mu.Unlock()
	}()
	if err != nil {
		r.met.probeFailures.Inc()
		n.failures++
		n.successes = 0
		if n.failures >= r.cfg.probeFailThreshold() && n.state != NodeDown {
			r.transitionLocked(n, NodeDown, fmt.Sprintf("%d consecutive probe failures (last: %v)", n.failures, err))
		}
		return
	}
	r.met.probeSuccesses.Inc()
	n.failures = 0
	degraded := lat > r.cfg.DegradedLatency && r.cfg.DegradedLatency > 0
	if inner != serve.Healthy {
		degraded = true
	}
	if degraded {
		n.successes = 0
		if n.state != NodeDegraded {
			r.transitionLocked(n, NodeDegraded, fmt.Sprintf("probe %v, node health %s", lat.Round(time.Microsecond), inner))
		}
		return
	}
	n.successes++
	if n.state != NodeUp && n.successes >= probeRecoverThreshold {
		r.transitionLocked(n, NodeUp, fmt.Sprintf("%d consecutive clean probes", n.successes))
	}
}

// transitionLocked records a state change: the typed event in the ring,
// the per-node state gauge, and the transition counter. Caller holds n.mu.
func (r *Router) transitionLocked(n *nodeSlot, to NodeState, reason string) {
	from := n.state
	n.setStateLocked(to)
	r.met.nodeState[n.id].Set(int64(to))
	r.met.transitions.Inc()
	ev := StateEvent{Node: n.id, From: from, To: to, Reason: reason, At: time.Now()}
	r.evMu.Lock()
	r.evSeq++
	ev.Seq = r.evSeq
	r.events = append(r.events, ev)
	r.evMu.Unlock()
}

// Events returns a copy of the typed state-transition log, in sequence
// order.
func (r *Router) Events() []StateEvent {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	out := make([]StateEvent, len(r.events))
	copy(out, r.events)
	return out
}

// proberLoop is the background probe ticker, started when ProbeInterval
// is set; it stops when the router drains.
func (r *Router) proberLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probe()
		}
	}
}
