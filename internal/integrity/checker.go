package integrity

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hdcedge/internal/metrics"
)

// Trigger says which detector opened a repair incident.
type Trigger int

const (
	// TriggerScrub means a checksum scrub found a corrupt segment.
	TriggerScrub Trigger = iota
	// TriggerCanary means a known-answer check failed.
	TriggerCanary
)

// String renders the trigger.
func (t Trigger) String() string {
	switch t {
	case TriggerScrub:
		return "scrub"
	case TriggerCanary:
		return "canary"
	}
	return fmt.Sprintf("trigger(%d)", int(t))
}

// Action is one rung of the repair ladder, cheapest first.
type Action int

const (
	// ActionRestore re-uploads the corrupt segments only.
	ActionRestore Action = iota
	// ActionReload reloads the full model through the pipeline.
	ActionReload
	// ActionReset power-cycles the device.
	ActionReset
	// ActionQuarantine takes the worker out of service permanently.
	ActionQuarantine
)

// String renders the action.
func (a Action) String() string {
	switch a {
	case ActionRestore:
		return "segment-reupload"
	case ActionReload:
		return "model-reload"
	case ActionReset:
		return "device-reset"
	case ActionQuarantine:
		return "quarantine"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Event is one Seq-ordered repair-ladder step. Repaired marks the rung that
// closed the incident; its TimeToRepair spans detection to verified-clean.
// SimCost is the simulated device/link time the action itself cost.
type Event struct {
	Seq          int           // checker-local, strictly increasing
	Worker       int           // owning worker id
	Trigger      Trigger       // which detector opened the incident
	Segment      string        // first corrupt segment ("" for canary triggers)
	Offset       int           // byte offset of the first corruption
	Action       Action        // the rung attempted
	Err          error         // action failure, if any
	Repaired     bool          // this rung closed the incident
	At           time.Time     // wall-clock time of the attempt
	SimCost      time.Duration // simulated cost of the action
	TimeToRepair time.Duration // detection → verified-clean (closing rung only)
}

// String renders the event for logs.
func (e Event) String() string {
	status := "escalate"
	switch {
	case e.Repaired:
		status = fmt.Sprintf("repaired in %s", metrics.FmtDur(e.TimeToRepair))
	case e.Err != nil:
		status = "error: " + e.Err.Error()
	case e.Action == ActionQuarantine:
		status = "out of service"
	}
	seg := e.Segment
	if seg == "" {
		seg = "-"
	}
	return fmt.Sprintf("[integrity] worker=%d seq=%d trigger=%s segment=%s action=%s %s",
		e.Worker, e.Seq, e.Trigger, seg, e.Action, status)
}

// maxEvents bounds the per-checker event ring.
const maxEvents = 256

// Policy configures the integrity layer for one server. The zero value
// disables everything (and serving stays bit-identical to an integrity-free
// build).
type Policy struct {
	// ScrubInterval is how often each worker verifies device-resident
	// segments against their golden copies. Zero disables scrubbing.
	ScrubInterval time.Duration
	// CanaryInterval is how often each worker runs its known-answer
	// checks. Zero disables canaries.
	CanaryInterval time.Duration
	// Canaries are the known-answer checks (see BuildCanaries).
	Canaries []Canary
}

// Enabled reports whether the policy asks for any integrity work.
func (p *Policy) Enabled() bool {
	if p == nil {
		return false
	}
	return p.ScrubInterval > 0 || (p.CanaryInterval > 0 && len(p.Canaries) > 0)
}

// Validate checks the policy for nonsense.
func (p *Policy) Validate() error {
	if p == nil {
		return nil
	}
	if p.ScrubInterval < 0 {
		return fmt.Errorf("integrity: negative scrub interval %v", p.ScrubInterval)
	}
	if p.CanaryInterval < 0 {
		return fmt.Errorf("integrity: negative canary interval %v", p.CanaryInterval)
	}
	if p.CanaryInterval > 0 && len(p.Canaries) == 0 {
		return fmt.Errorf("integrity: canary interval %v with no canaries", p.CanaryInterval)
	}
	return nil
}

// Deps are the hooks a Checker drives repairs through. Target is nil for
// host-only workers (canary checks still run; the ladder starts at reload).
type Deps struct {
	Worker     int
	Target     Target                        // device to scrub/restore/reset, or nil
	Reload     func() (time.Duration, error) // full model reload (required)
	Quarantine func()                        // take the worker out of service
	Clock      func() time.Time              // defaults to time.Now
}

// CanaryInvoke runs one canary through the real serving path and returns
// the predicted label and score margin. It must honor ctx cancellation.
type CanaryInvoke func(ctx context.Context, c Canary) (pred int, margin float64, err error)

// Report aggregates one checker's lifetime counters. Merge combines
// reports across workers.
type Report struct {
	Scrubs         int // scrub passes completed
	Corruptions    int // corrupt segments detected
	CanaryRuns     int // individual canary invocations
	CanaryFailures int // failed known-answer checks
	Incidents      int // repair incidents opened
	Repaired       int // incidents closed verified-clean
	Restores       int // segment re-upload rungs attempted
	Reloads        int // model reload rungs attempted
	Resets         int // device reset rungs attempted
	Quarantines    int // quarantine rungs (0 or 1 per checker)
	Quarantined    bool
	RepairSimTime  time.Duration      // simulated cost of all repair actions
	TimeToRepair   *metrics.Histogram // detection → verified-clean, wall clock
}

// Merge folds o into r.
func (r *Report) Merge(o Report) {
	r.Scrubs += o.Scrubs
	r.Corruptions += o.Corruptions
	r.CanaryRuns += o.CanaryRuns
	r.CanaryFailures += o.CanaryFailures
	r.Incidents += o.Incidents
	r.Repaired += o.Repaired
	r.Restores += o.Restores
	r.Reloads += o.Reloads
	r.Resets += o.Resets
	r.Quarantines += o.Quarantines
	r.Quarantined = r.Quarantined || o.Quarantined
	r.RepairSimTime += o.RepairSimTime
	if o.TimeToRepair != nil {
		if r.TimeToRepair == nil {
			r.TimeToRepair = metrics.NewHistogram()
		}
		r.TimeToRepair.Merge(o.TimeToRepair)
	}
}

// Checker runs one worker's integrity maintenance: periodic scrubs and
// canary runs, and the self-healing repair ladder when either detector
// fires. Maintain must be called from the worker goroutine that owns the
// device; NextDue, Report, Events and Quarantined are safe from any
// goroutine. Every count lives in the checker's metric handles (see
// Instrument); Report is a view of them.
type Checker struct {
	pol    Policy
	golden *Golden
	d      Deps
	clock  func() time.Time

	mu          sync.Mutex
	seq         int
	nextScrub   time.Time
	nextCanary  time.Time
	quarantined bool
	events      []Event
	met         checkerMetrics
}

// NewChecker builds a checker for one worker. golden may be nil only when
// scrubbing is disabled or there is no target to scrub.
func NewChecker(golden *Golden, pol Policy, d Deps) (*Checker, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if d.Reload == nil {
		return nil, fmt.Errorf("integrity: checker needs a reload hook")
	}
	if pol.ScrubInterval > 0 && d.Target != nil && golden == nil {
		return nil, fmt.Errorf("integrity: scrubbing a target needs a golden reference")
	}
	c := &Checker{pol: pol, golden: golden, d: d, clock: d.Clock,
		met: newCheckerMetrics(metrics.NewRegistry(), "")}
	if c.clock == nil {
		c.clock = time.Now
	}
	now := c.clock()
	if c.scrubbing() {
		c.nextScrub = now.Add(pol.ScrubInterval)
	}
	if c.canarying() {
		c.nextCanary = now.Add(pol.CanaryInterval)
	}
	return c, nil
}

// scrubbing reports whether this checker runs checksum scrubs at all.
func (c *Checker) scrubbing() bool {
	return c.pol.ScrubInterval > 0 && c.d.Target != nil &&
		c.golden != nil && len(c.golden.Segments) > 0
}

// canarying reports whether this checker runs known-answer checks.
func (c *Checker) canarying() bool {
	return c.pol.CanaryInterval > 0 && len(c.pol.Canaries) > 0
}

// NextDue returns the earliest time integrity work is due, or ok=false when
// nothing ever will be (disabled, or quarantined).
func (c *Checker) NextDue() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.quarantined {
		return time.Time{}, false
	}
	var due time.Time
	ok := false
	if c.scrubbing() && (!ok || c.nextScrub.Before(due)) {
		due, ok = c.nextScrub, true
	}
	if c.canarying() && (!ok || c.nextCanary.Before(due)) {
		due, ok = c.nextCanary, true
	}
	return due, ok
}

// Quarantined reports whether the ladder exhausted every rung.
func (c *Checker) Quarantined() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

// Report reads the lifetime counters from the checker's metric handles.
func (c *Checker) Report() Report {
	m := c.met
	count := func(h *metrics.Counter) int { return int(h.Value()) }
	ttr := m.ttr.Snapshot()
	return Report{
		Scrubs:         count(m.scrubs),
		Corruptions:    count(m.corruptions),
		CanaryRuns:     count(m.canaryRuns),
		CanaryFailures: count(m.canaryFailures),
		Incidents:      count(m.incidents),
		Repaired:       ttr.Count(),
		Restores:       count(m.repairs[ActionRestore]),
		Reloads:        count(m.repairs[ActionReload]),
		Resets:         count(m.repairs[ActionReset]),
		Quarantines:    count(m.repairs[ActionQuarantine]),
		Quarantined:    c.Quarantined(),
		RepairSimTime:  time.Duration(m.repairSimNs.Value()),
		TimeToRepair:   ttr,
	}
}

// Events returns a copy of the retained repair events, oldest first.
func (c *Checker) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Maintain runs whatever integrity work is due — a scrub pass, a canary
// pass, and the repair ladder if either detector fires — and returns the
// repair events it emitted (nil when all was quiet). It must run on the
// worker goroutine between batches; a cancelled ctx (drain) aborts the
// pass quietly.
func (c *Checker) Maintain(ctx context.Context, invoke CanaryInvoke) []Event {
	if c.Quarantined() {
		return nil
	}
	var evs []Event
	if c.takeDue(&c.nextScrub, c.pol.ScrubInterval, c.scrubbing()) {
		evs = append(evs, c.scrubPass(ctx, invoke)...)
	}
	if ctx.Err() == nil && !c.Quarantined() &&
		c.takeDue(&c.nextCanary, c.pol.CanaryInterval, c.canarying() && invoke != nil) {
		evs = append(evs, c.canaryPass(ctx, invoke)...)
	}
	return evs
}

// takeDue checks (and advances) one periodic deadline under the lock.
func (c *Checker) takeDue(next *time.Time, interval time.Duration, enabled bool) bool {
	if !enabled {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	if now.Before(*next) {
		return false
	}
	*next = now.Add(interval)
	return true
}

// scrubPass verifies every golden segment and opens an incident on the
// first corruption.
func (c *Checker) scrubPass(ctx context.Context, invoke CanaryInvoke) []Event {
	corrupt := c.golden.Scrub(c.d.Target)
	c.met.scrubs.Inc()
	if len(corrupt) == 0 {
		return nil
	}
	c.met.corruptions.Add(int64(len(corrupt)))
	return c.ladder(ctx, TriggerScrub, corrupt, invoke, c.clock())
}

// canaryPass runs the known-answer checks and opens an incident on the
// first failure.
func (c *Checker) canaryPass(ctx context.Context, invoke CanaryInvoke) []Event {
	fail, err := c.runCanaries(ctx, invoke)
	if err != nil {
		return nil // cancelled (drain): abort quietly
	}
	if fail == nil {
		return nil
	}
	c.met.canaryFailures.Inc()
	return c.ladder(ctx, TriggerCanary, nil, invoke, c.clock())
}

// runCanaries runs every canary, returning the first failure. The error
// return is non-nil only for ctx cancellation; an invoke that errors after
// the pipeline's own retry/fallback machinery gave up counts as a failed
// check, not an aborted pass.
func (c *Checker) runCanaries(ctx context.Context, invoke CanaryInvoke) (*CanaryError, error) {
	for i, cn := range c.pol.Canaries {
		pred, margin, err := invoke(ctx, cn)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return &CanaryError{Index: i, Reason: "invoke error: " + err.Error(),
				WantLabel: cn.Label, GotLabel: -1, WantMargin: cn.Margin}, nil
		}
		c.met.canaryRuns.Inc()
		if ce := cn.Check(i, pred, margin); ce != nil {
			return ce, nil
		}
	}
	return nil, nil
}

// verifyClean re-runs both detectors after a repair action: the segment
// scrub must come back clean and every canary must pass. A cancelled ctx
// reports unverified (false) so the ladder stops escalating on drain.
func (c *Checker) verifyClean(ctx context.Context, invoke CanaryInvoke) bool {
	if ctx.Err() != nil {
		return false
	}
	if c.scrubbing() && len(c.golden.Scrub(c.d.Target)) > 0 {
		return false
	}
	if c.canarying() && invoke != nil {
		fail, err := c.runCanaries(ctx, invoke)
		if err != nil || fail != nil {
			return false
		}
	}
	return true
}

// ladder walks the repair rungs — segment re-upload, model reload, device
// reset, quarantine — verifying after each until the incident closes.
// detected anchors time-to-repair.
func (c *Checker) ladder(ctx context.Context, trig Trigger, corrupt []*CorruptionError, invoke CanaryInvoke, detected time.Time) []Event {
	c.met.incidents.Inc()

	var evs []Event
	segID, segOff := "", 0
	if len(corrupt) > 0 {
		segID, segOff = corrupt[0].Segment, corrupt[0].Offset
	}
	emit := func(e Event) {
		e.Worker = c.d.Worker
		e.Trigger = trig
		e.At = c.clock()
		c.record(&e)
		evs = append(evs, e)
	}
	closeOut := func(e *Event) {
		e.Repaired = true
		e.TimeToRepair = c.clock().Sub(detected)
		c.met.ttr.Observe(e.TimeToRepair)
	}

	// Rung 1: re-upload just the corrupt segments. Only a scrub knows
	// which segments to restore; canary incidents start at reload.
	if trig == TriggerScrub && c.d.Target != nil {
		var cost time.Duration
		var rerr error
		for _, ce := range corrupt {
			d, err := c.restoreSegment(c.golden.Segment(ce.Segment))
			cost += d
			if err != nil && rerr == nil {
				rerr = err
			}
		}
		c.bumpRung(ActionRestore, cost)
		e := Event{Segment: segID, Offset: segOff, Action: ActionRestore, Err: rerr, SimCost: cost}
		if rerr == nil && c.verifyClean(ctx, invoke) {
			closeOut(&e)
			emit(e)
			return evs
		}
		emit(e)
		if ctx.Err() != nil {
			return evs
		}
	}

	// Rung 2: full model reload through the pipeline.
	cost, err := c.d.Reload()
	c.bumpRung(ActionReload, cost)
	e := Event{Segment: segID, Offset: segOff, Action: ActionReload, Err: err, SimCost: cost}
	if err == nil && c.verifyClean(ctx, invoke) {
		closeOut(&e)
		emit(e)
		return evs
	}
	emit(e)
	if ctx.Err() != nil {
		return evs
	}

	// Rung 3: power-cycle the device (hardware targets only).
	if c.d.Target != nil {
		cost, err := c.d.Target.PowerCycle()
		c.bumpRung(ActionReset, cost)
		e := Event{Segment: segID, Offset: segOff, Action: ActionReset, Err: err, SimCost: cost}
		if err == nil && c.verifyClean(ctx, invoke) {
			closeOut(&e)
			emit(e)
			return evs
		}
		emit(e)
		if ctx.Err() != nil {
			return evs
		}
	}

	// Rung 4: out of service. TimeToRepair here is time-to-giving-up; it
	// is recorded on the event for forensics but not in the histogram.
	c.mu.Lock()
	already := c.quarantined
	c.quarantined = true
	c.mu.Unlock()
	c.met.repairs[ActionQuarantine].Inc()
	c.met.quarantined.Set(1)
	if !already && c.d.Quarantine != nil {
		c.d.Quarantine()
	}
	emit(Event{Segment: segID, Offset: segOff, Action: ActionQuarantine,
		TimeToRepair: c.clock().Sub(detected)})
	return evs
}

// restoreSegment re-uploads one segment's golden bytes to the target.
func (c *Checker) restoreSegment(seg *Segment) (time.Duration, error) {
	if seg == nil {
		return 0, fmt.Errorf("integrity: restore of unknown segment")
	}
	if seg.Kind == KindLUT {
		live := c.d.Target.CachedLUT(seg.Op)
		if live != nil {
			*live = *seg.lut
		}
		return c.d.Target.TransferCost(seg.Bytes), nil
	}
	return c.d.Target.RestoreSegment(seg.Tensor)
}

// bumpRung counts one repair-ladder action and its simulated cost.
func (c *Checker) bumpRung(a Action, cost time.Duration) {
	c.met.repairs[a].Inc()
	c.met.repairSimNs.Add(int64(cost))
}

// record assigns the event's sequence number and retains it in the bounded
// ring.
func (c *Checker) record(e *Event) {
	c.mu.Lock()
	c.seq++
	e.Seq = c.seq
	c.events = append(c.events, *e)
	if len(c.events) > maxEvents {
		c.events = c.events[len(c.events)-maxEvents:]
	}
	c.mu.Unlock()
}
