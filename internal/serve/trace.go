package serve

import (
	"sync"
	"time"

	"hdcedge/internal/pipeline"
)

// traceDepth is the server's trace ring capacity: the most recent
// traceDepth settled requests keep their span breakdown.
const traceDepth = 256

// Trace is the span breakdown of one settled request: how long it spent in
// each stage of its life (admit → queue → batch-hold → invoke → settle),
// and which worker/backend/batch served it. Durations are reported in
// nanoseconds under JSON.
type Trace struct {
	ID       uint64    `json:"id"`       // admission sequence number
	Admitted time.Time `json:"admitted"` // wall-clock admission

	Queue     time.Duration `json:"queue_ns"`      // admission → dequeue
	BatchHold time.Duration `json:"batch_hold_ns"` // dequeue → invoke start
	Invoke    time.Duration `json:"invoke_ns"`     // invoke start → invoke end (incl. pacing)
	Settle    time.Duration `json:"settle_ns"`     // invoke end → settled
	Total     time.Duration `json:"total_ns"`      // admission → settled

	Worker  int    `json:"worker"`            // worker index, -1 when no invoke ran
	Backend string `json:"backend,omitempty"` // backend class of that worker
	Batch   int    `json:"batch,omitempty"`   // occupied rows of the serving invoke
	Breaker string `json:"breaker,omitempty"` // the worker's breaker state after the invoke
	OnHost  bool   `json:"on_host,omitempty"` // served by the degraded mode
	Err     string `json:"err,omitempty"`     // settlement error, empty on success
}

// invokeSpan carries the invoke-phase annotations from the worker that ran
// the invoke to the settle path. One span is shared by every member of a
// coalesced batch; it is written only by the worker goroutine, before any
// settle that references it.
type invokeSpan struct {
	worker  int
	backend string
	batch   int
	breaker pipeline.BreakerState
	onHost  bool
	start   time.Time
	end     time.Time
}

// traceRing is a bounded ring of the most recent settled-request traces.
type traceRing struct {
	mu   sync.Mutex
	buf  []Trace
	next int // slot the next trace lands in
	n    int // occupied slots
}

// newTraceRing sizes the ring at depth slots.
func newTraceRing(depth int) *traceRing {
	return &traceRing{buf: make([]Trace, depth)}
}

// record assembles and stores the trace of one settled request. Called by
// the winning settler only, after the request's fate is decided; deq is the
// request's dequeue time as read under s.mu, now the settlement instant.
func (t *traceRing) record(r *request, o outcome, deq, now time.Time) {
	tr := Trace{
		ID:       r.id,
		Admitted: r.enq,
		Total:    now.Sub(r.enq),
		Worker:   -1,
	}
	if !deq.IsZero() {
		tr.Queue = deq.Sub(r.enq)
	} else {
		// Settled while still queued (deadline, cancel, force-drain).
		tr.Queue = tr.Total
	}
	if o.inv != nil {
		tr.BatchHold = o.inv.start.Sub(deq)
		tr.Invoke = o.inv.end.Sub(o.inv.start)
		tr.Settle = now.Sub(o.inv.end)
		tr.Worker = o.inv.worker
		tr.Backend = o.inv.backend
		tr.Batch = o.inv.batch
		tr.Breaker = o.inv.breaker.String()
		tr.OnHost = o.inv.onHost
	}
	if o.err != nil {
		tr.Err = o.err.Error()
	}
	t.mu.Lock()
	t.buf[t.next] = tr
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
	t.mu.Unlock()
}

// list returns the stored traces, oldest first.
func (t *traceRing) list() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, t.n)
	start := t.next - t.n
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i+len(t.buf))%len(t.buf)])
	}
	return out
}

// Traces returns the most recent settled-request traces, oldest first, up
// to traceDepth of them.
func (s *Server) Traces() []Trace {
	return s.traces.list()
}
