// Package serve is the request-level serving runtime on top of
// ResilientRunner: a bounded admission queue with load shedding, per-request
// deadlines threaded as contexts through the invoke path, a worker pool
// dispatching across a fleet of heterogeneous execution backends (simulated
// Edge TPUs, host-CPU interpreters), per-backend circuit breakers feeding a
// server-level health state, and graceful drain on shutdown. See
// docs/serving.md for the admission, fleet and drain semantics.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdcedge/internal/backend"
	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/backend/hostcpu"
	"hdcedge/internal/backend/tpu"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/integrity"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/tensor"
)

// FleetSpec lists the backend class of each worker in dispatch order, e.g.
// {"tpu", "tpu", "cpu", "cpu"}. Supported classes are tpu.Name ("tpu"),
// hostcpu.Name ("cpu"), and binhd.Name ("bin" — the bit-packed binary HDC
// engine, which requires Config.Bipolar).
type FleetSpec []string

// knownFleetClass reports whether kind names a servable backend class.
func knownFleetClass(kind string) bool {
	return kind == tpu.Name || kind == hostcpu.Name || kind == binhd.Name
}

// FleetError reports a rejected fleet spec: which segment of which spec was
// bad and why. Segment is empty for spec-level faults (an empty spec).
type FleetError struct {
	Spec    string // the full spec as given
	Segment string // the offending "class=count" segment, "" for spec-level faults
	Reason  string
}

func (e *FleetError) Error() string {
	if e.Segment == "" {
		return fmt.Sprintf("serve: fleet spec %q: %s", e.Spec, e.Reason)
	}
	return fmt.Sprintf("serve: fleet spec %q segment %q: %s", e.Spec, e.Segment, e.Reason)
}

// ParseFleet parses a composition spec like "tpu=2,cpu=2" (classes in the
// given order, counts >= 1, each class at most once) into a FleetSpec.
// Empty segments, duplicate class keys, and zero or negative counts are
// rejected with a *FleetError rather than silently skipped or folded, so a
// typo'd spec cannot quietly under-provision a fleet.
func ParseFleet(spec string) (FleetSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, &FleetError{Spec: spec, Reason: "empty spec"}
	}
	var fleet FleetSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		trimmed := strings.TrimSpace(part)
		if trimmed == "" {
			return nil, &FleetError{Spec: spec, Segment: part, Reason: "empty segment"}
		}
		kind, countStr, ok := strings.Cut(trimmed, "=")
		kind = strings.TrimSpace(kind)
		count := 1
		if ok {
			n, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil {
				return nil, &FleetError{Spec: spec, Segment: trimmed, Reason: "count is not an integer"}
			}
			if n <= 0 {
				return nil, &FleetError{Spec: spec, Segment: trimmed,
					Reason: fmt.Sprintf("count %d must be at least 1", n)}
			}
			count = n
		}
		if !knownFleetClass(kind) {
			return nil, &FleetError{Spec: spec, Segment: trimmed,
				Reason: fmt.Sprintf("unknown backend class %q (have %q, %q, %q)", kind, tpu.Name, hostcpu.Name, binhd.Name)}
		}
		if seen[kind] {
			return nil, &FleetError{Spec: spec, Segment: trimmed,
				Reason: fmt.Sprintf("duplicate backend class %q", kind)}
		}
		seen[kind] = true
		for i := 0; i < count; i++ {
			fleet = append(fleet, kind)
		}
	}
	return fleet, nil
}

// String renders the fleet back into "tpu=2,cpu=2" form, classes in first-
// appearance order.
func (f FleetSpec) String() string {
	counts := map[string]int{}
	var order []string
	for _, kind := range f {
		if counts[kind] == 0 {
			order = append(order, kind)
		}
		counts[kind]++
	}
	parts := make([]string, 0, len(order))
	for _, kind := range order {
		parts = append(parts, fmt.Sprintf("%s=%d", kind, counts[kind]))
	}
	return strings.Join(parts, ",")
}

// Config sizes the serving runtime.
type Config struct {
	// Devices is the number of simulated accelerator devices (and worker
	// goroutines). Zero defaults to one. Ignored when Fleet is set.
	Devices int

	// Fleet, when non-empty, makes the worker pool heterogeneous: one
	// worker per entry, backed by that backend class. TPU workers keep the
	// host CPU as their degraded mode exactly as before; CPU workers run
	// the interpreter as their primary engine and have no degraded mode
	// (they cannot fault). Empty means Devices all-TPU workers — the
	// legacy, bit-identical configuration.
	Fleet FleetSpec

	// QueueCapacity bounds the admission queue; a request arriving at a
	// full queue is shed with a *ShedError rather than queued. Zero or
	// negative means unbounded (no shedding on depth).
	QueueCapacity int

	// DefaultDeadline is applied to requests whose context carries no
	// deadline of its own. Zero applies none.
	DefaultDeadline time.Duration

	// DrainDeadline bounds how long Drain waits for in-flight and queued
	// work before force-failing the stragglers. Zero waits forever.
	DrainDeadline time.Duration

	// Policy is the per-device recovery policy. Worker i uses Policy with
	// Seed+i so jitter streams stay independent; device 0 keeps the base
	// seed, so a one-device server is bit-identical to a direct runner.
	Policy pipeline.RecoveryPolicy

	// Plan is the fault plan armed on every device (Seed+i per device).
	// Plans, when it has exactly Devices entries, overrides Plan with a
	// distinct plan per device (for asymmetric-failure tests).
	Plan  edgetpu.FaultPlan
	Plans []edgetpu.FaultPlan

	// PacePerInvoke makes each worker occupy wall-clock time per invoke
	// (sleep after the simulated invoke), emulating real device occupancy
	// so that offered load beyond capacity actually queues. Zero disables
	// pacing: the simulated invoke is then wall-clock instantaneous.
	PacePerInvoke time.Duration

	// PaceScale adds PaceScale × the invoke's simulated total to the pace,
	// so worker occupancy tracks the cost model: a batched invoke then
	// occupies its worker barely longer than a single-row one and the
	// systolic amortization shows up as wall-clock throughput. Zero keeps
	// pacing flat per invoke.
	PaceScale float64

	// MaxBatch is how many queued requests one worker may coalesce into a
	// single device invoke (rows of one input tensor, one InvokeCtx). It
	// must not exceed the compiled model's batch capacity. Zero or one
	// serves one request per invoke — the pre-batching behavior.
	MaxBatch int

	// BatchWindow bounds how long a worker holds an underfull batch open
	// for more arrivals before dispatching it. Each queued request is held
	// at most half its remaining deadline slack, whichever is smaller, so
	// a request never misses its deadline waiting for a window to fill.
	// Zero dispatches immediately with whatever is queued (batching still
	// coalesces a backlog, but never waits for one).
	BatchWindow time.Duration

	// Metrics, when non-nil, is the registry the server streams its live
	// telemetry into (admission counters, queue depth, per-backend invoke
	// latency, breaker states). Nil gives the server a private registry;
	// either way it is reachable via Server.Metrics() and snapshottable at
	// any time, including mid-invoke.
	Metrics *metrics.Registry

	// TraceDepth bounds the per-request trace ring: the most recent
	// TraceDepth settled requests keep their span breakdown (see Trace).
	// Zero means DefaultTraceDepth; negative disables tracing.
	TraceDepth int

	// Bipolar is the sign-quantized model binary-HDC ("bin") workers
	// serve. Required when Fleet contains binhd.Name; ignored otherwise.
	// It must share the float encoder of the compiled model so a
	// bin-served answer comes from the same trained classifier, just in
	// its bit-packed deployment form.
	Bipolar *hdc.BipolarModel

	// Integrity, when non-nil and enabled, arms the silent-data-corruption
	// defense: each worker periodically scrubs its device-resident
	// parameters against golden checksums and runs canary known-answer
	// checks through the real invoke path, self-healing through the repair
	// ladder (segment re-upload → model reload → device reset →
	// quarantine). Nil or disabled leaves the serving path bit-identical
	// to a server without integrity support. In registry mode the policy's
	// canaries answer against the default model only; other models run
	// scrub-only unless their registry entry carries its own policy.
	Integrity *integrity.Policy

	// Registry, when non-nil, makes the server multi-model: requests may
	// name any registered model, workers bind models lazily by consulting
	// the registry, and each accelerated worker's on-chip parameter memory
	// is simulated — a miss pays the entry's deterministic re-setup cost,
	// billed into the invoke's WeightStream phase, and evicts under
	// MemPolicy. Nil serves the single compiled model passed to New — the
	// legacy, bit-identical configuration.
	Registry *registry.Registry

	// DefaultModel is the model served by requests that name none. Empty
	// means the first registered model. Ignored without Registry.
	DefaultModel string

	// MemBudget overrides the per-device on-chip parameter-memory budget
	// in bytes. Zero uses the device's own ParamMemBytes (8 MiB on the
	// default USB Edge TPU). Ignored without Registry.
	MemBudget int

	// MemPolicy selects the eviction policy under memory pressure
	// (EvictLRU by default; PinFirst is the static baseline the ablation
	// compares against). Ignored without Registry.
	MemPolicy registry.EvictPolicy

	// Tenants, when non-empty, makes admission multi-tenant: requests
	// carry a tenant name, each tenant gets its own bounded FIFO, and
	// dispatch follows strict priority classes with stride-based
	// weighted-fair queuing inside a class. Empty keeps the single global
	// FIFO — the legacy, bit-identical configuration.
	Tenants []TenantSpec
}

// Validate checks the configuration for sanity.
func (c Config) Validate() error {
	if c.Devices < 0 {
		return fmt.Errorf("serve: negative Devices %d", c.Devices)
	}
	if c.DefaultDeadline < 0 {
		return fmt.Errorf("serve: negative DefaultDeadline %v", c.DefaultDeadline)
	}
	if c.DrainDeadline < 0 {
		return fmt.Errorf("serve: negative DrainDeadline %v", c.DrainDeadline)
	}
	if c.PacePerInvoke < 0 {
		return fmt.Errorf("serve: negative PacePerInvoke %v", c.PacePerInvoke)
	}
	if c.PaceScale < 0 {
		return fmt.Errorf("serve: negative PaceScale %v", c.PaceScale)
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("serve: negative MaxBatch %d", c.MaxBatch)
	}
	if c.BatchWindow < 0 {
		return fmt.Errorf("serve: negative BatchWindow %v", c.BatchWindow)
	}
	for i, kind := range c.Fleet {
		if !knownFleetClass(kind) {
			return fmt.Errorf("serve: fleet worker %d has unknown backend class %q", i, kind)
		}
		if kind == binhd.Name && c.Bipolar == nil {
			return fmt.Errorf("serve: fleet worker %d is %q but Config.Bipolar is nil", i, binhd.Name)
		}
	}
	if len(c.Fleet) > 0 && c.Devices > 0 && c.Devices != len(c.Fleet) {
		return fmt.Errorf("serve: Devices %d disagrees with %d-worker Fleet %q", c.Devices, len(c.Fleet), c.Fleet)
	}
	if len(c.Plans) != 0 && len(c.Plans) != c.workers() {
		return fmt.Errorf("serve: %d per-device plans for %d workers", len(c.Plans), c.workers())
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("serve: negative MemBudget %d", c.MemBudget)
	}
	seen := map[string]bool{}
	for i, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("serve: tenant %d has an empty name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("serve: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if t.Weight < 0 || t.Quota < 0 || t.Deadline < 0 || t.Priority < 0 {
			return fmt.Errorf("serve: tenant %q has a negative field: %+v", t.Name, t)
		}
	}
	if err := c.Integrity.Validate(); err != nil {
		return err
	}
	return nil
}

// workers returns the worker-pool size the config asks for.
func (c Config) workers() int {
	if len(c.Fleet) > 0 {
		return len(c.Fleet)
	}
	return max(c.Devices, 1)
}

// fleet returns the effective fleet composition: Fleet verbatim, or the
// legacy all-TPU pool.
func (c Config) fleet() FleetSpec {
	if len(c.Fleet) > 0 {
		return c.Fleet
	}
	fleet := make(FleetSpec, c.workers())
	for i := range fleet {
		fleet[i] = tpu.Name
	}
	return fleet
}

// ShedCause says why admission refused a request.
type ShedCause int

const (
	// ShedQueueFull: the bounded queue was at capacity.
	ShedQueueFull ShedCause = iota
	// ShedDraining: the server had stopped admitting for shutdown.
	ShedDraining
	// ShedTenantQuota: the request's tenant was at its per-tenant queued
	// quota, even though the global queue may have had room.
	ShedTenantQuota
)

// String renders the cause.
func (c ShedCause) String() string {
	switch c {
	case ShedQueueFull:
		return "queue full"
	case ShedDraining:
		return "draining"
	case ShedTenantQuota:
		return "tenant quota"
	}
	return fmt.Sprintf("shed(%d)", int(c))
}

// ShedError is returned by Do when admission refuses a request.
type ShedError struct{ Cause ShedCause }

func (e *ShedError) Error() string { return "serve: request shed: " + e.Cause.String() }

// DrainError marks work force-failed (or a drain cut short) by the drain
// deadline. Stage is "queued" for requests failed while still queued,
// "in-flight" for requests cancelled mid-invoke, and "deadline" on the
// error Drain itself returns.
type DrainError struct{ Stage string }

func (e *DrainError) Error() string { return "serve: drain deadline forced failure (" + e.Stage + ")" }

// Health is the server-level health derived from the per-device breakers.
type Health int

const (
	// Healthy: every device breaker is closed.
	Healthy Health = iota
	// Degraded: some but not all breakers are open or half-open.
	Degraded
	// Critical: no breaker is closed; everything serves from the host.
	Critical
)

// String renders the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// Result is what a completed request observed.
type Result struct {
	Timing    backend.Timing // simulated per-invoke timing (incl. recovery)
	OnHost    bool           // served by the primary backend's degraded mode
	Device    int            // worker index that served it
	Backend   string         // backend class of that worker ("tpu", "cpu")
	BatchSize int            // occupied rows of the invoke that served it
	QueueWait time.Duration  // wall-clock time spent queued
	Latency   time.Duration  // wall-clock admission → completion

	Tenant string        // tenant the request ran under ("" in legacy mode)
	Model  string        // model that served it ("" in legacy mode)
	Swap   time.Duration // re-setup billed because the model was not resident
}

// Request is one unit of work with its tenancy annotations. The zero
// Tenant/Model mean "the first tenant" and "the default model", so a
// Request{Fill: f, Consume: c} is exactly a legacy Do call.
type Request struct {
	// Tenant names the submitting tenant. Must be a configured tenant
	// when Config.Tenants is set; "" maps to the first tenant.
	Tenant string

	// Model names the registered model to run. "" means the default
	// model; non-empty names require Config.Registry.
	Model string

	// Fill populates the input tensor (may run more than once under
	// recovery; must be idempotent).
	Fill func(in *tensor.Tensor)

	// Consume, if non-nil, reads the output tensor before the worker
	// reuses it — copy out anything kept past the call.
	Consume func(out *tensor.Tensor)
}

// outcome is the settled fate of one request.
type outcome struct {
	res Result
	err error
	inv *invokeSpan // the invoke that produced it; nil when none ran
}

// request is one admitted unit of work.
type request struct {
	id      uint64 // admission sequence number (trace identity)
	ctx     context.Context
	cancel  context.CancelFunc
	fill    func(in *tensor.Tensor)
	consume func(out *tensor.Tensor)
	tenant  *tenantState // resolved admission tenant (never nil once admitted)
	model   string       // resolved model ID ("" in legacy mode)
	enq     time.Time
	deq     time.Time    // dequeue into a batch; zero while queued (under s.mu)
	res     chan outcome // buffered, cap 1; receives exactly one outcome
	settled atomic.Bool  // CAS gate: first settler wins
}

// workerStats is one worker's serving breakdown, aggregated per backend
// class into ServeReport.Backends. Guarded by worker.mu.
type workerStats struct {
	Invokes  int                // successful engine invokes
	Rows     int                // occupied rows summed across those invokes
	MaxRows  int                // largest single-invoke occupancy
	Requests int                // completed requests this worker settled
	SimTime  time.Duration      // simulated invoke time summed
	Busy     time.Duration      // wall-clock invoke + pacing occupancy
	Latency  *metrics.Histogram // e2e latency of requests served here
}

// modelBind is one worker's runner (and optional integrity checker) for
// one model. A legacy server has a single bind keyed ""; a registry-mode
// worker grows binds lazily as models are dispatched to it. Only the
// worker goroutine touches the runner/integ/loaded fields; the accounting
// fields are guarded by worker.mu.
type modelBind struct {
	id      string          // model ID ("" in legacy mode)
	version int             // registry entry version the runner was built from
	entry   *registry.Entry // nil in legacy mode
	runner  *pipeline.ResilientRunner
	integ   *integrity.Checker
	loaded  bool // host worker paid its one-time model-load bill

	// Guarded by worker.mu.
	report   pipeline.ReliabilityReport // snapshot after the last invoke
	requests int                        // completed requests served via this bind
	invokes  int                        // successful engine invokes
	swap     time.Duration              // re-setup billed on this worker for this model
}

// worker owns one backend slot of the pool and the per-model runners bound
// to it. Runners are not safe for concurrent use and are touched only by
// the worker goroutine; after every invoke the worker publishes a
// reliability snapshot under mu so Report can read it without blocking
// behind an in-flight invoke.
type worker struct {
	id    int
	name  string // backend class (tpu.Name, hostcpu.Name, binhd.Name)
	accel bool   // accelerated class: participates in device-memory simulation

	// cur is the currently bound model; binds caches every model this
	// worker has ever bound. Both are touched only by the worker goroutine
	// (cur is set once in New before the loop starts).
	cur   *modelBind
	binds map[string]*modelBind

	// mem simulates this worker's on-chip parameter memory in registry
	// mode (nil otherwise, and for host workers).
	mem *registry.DeviceMemory

	// policy/plan/labels are the positional seeds and metric labels the
	// worker builds lazy binds with.
	policy pipeline.RecoveryPolicy
	plan   edgetpu.FaultPlan
	labels string

	state atomic.Int32 // pipeline.BreakerState of cur, updated after every invoke

	mu    sync.Mutex
	stats workerStats

	// invokeMu guards invokeCancel, the cancel func of the in-flight
	// batched invoke's merged context; the drain force path fires it so a
	// multi-request invoke (or an integrity maintenance pass) cannot
	// outlive the drain deadline.
	invokeMu     sync.Mutex
	invokeCancel context.CancelFunc

	// rowViews caches per-row views of the engine tensors the worker
	// scatters to, keyed by the backing tensor (which changes when the
	// runner reloads the model or switches to the host interpreter). Only
	// the worker goroutine touches it.
	rowViews map[*tensor.Tensor][]*tensor.Tensor
}

// wholeTensor is rowView's unbatched counterpart: a lone request owns the
// whole tensor.
func wholeTensor(t *tensor.Tensor, _ int) *tensor.Tensor { return t }

// rowView returns a cached single-row view of t ([1, ...] at row i).
func (w *worker) rowView(t *tensor.Tensor, i int) *tensor.Tensor {
	if w.rowViews == nil {
		w.rowViews = make(map[*tensor.Tensor][]*tensor.Tensor)
	}
	vs, ok := w.rowViews[t]
	if !ok {
		vs = make([]*tensor.Tensor, t.Shape[0])
		w.rowViews[t] = vs
	}
	if vs[i] == nil {
		vs[i] = t.ViewRows(i, i+1)
	}
	return vs[i]
}

// Server is the serving runtime. Create with New; shut down with Drain or
// Close. All methods are safe for concurrent use.
type Server struct {
	cfg      Config
	p        pipeline.Platform // platform lazy binds are built against
	defModel string            // resolved default model ID ("" in legacy mode)
	golden   *integrity.Golden // legacy-mode shared golden (nil in registry mode)
	workers  []*worker
	met      *serveMetrics // live registry handles (one source of truth)
	traces   *traceRing
	reqID    atomic.Uint64 // admission sequence for trace identity
	forced   atomic.Bool   // drain deadline fired: cancellations are force-failures

	mu       sync.Mutex
	cond     *sync.Cond
	sched    *scheduler            // per-tenant queues; single anonymous FIFO in legacy mode
	pending  map[*request]struct{} // admitted, not yet settled
	draining bool
	wg       sync.WaitGroup
}

// counters is the admission/outcome half of ServeReport. Since the live
// registry became the one source of truth it is no longer the server's
// working state: Report() materializes it from the registry handles, so the
// report and a concurrent Snapshot can never disagree.
type counters struct {
	Submitted        int
	Admitted         int
	Completed        int
	ShedQueueFull    int
	ShedDraining     int
	ShedTenantQuota  int
	DeadlineExceeded int
	Cancelled        int
	DrainForced      int
	Failed           int
	HostFallback     int
	MaxQueueDepth    int
	BatchInvokes     int // successful device invokes (batched or single)
	BatchRows        int // occupied rows summed across those invokes
	MaxBatchRows     int // largest single-invoke occupancy observed
	Latency          *metrics.Histogram
	QueueWait        *metrics.Histogram
	PerSample        *metrics.Histogram // simulated compute time per sample row
}

// New builds a server over the configured fleet — by default cfg.Devices
// simulated accelerator workers, each loaded with cm and armed with its
// fault plan; with cfg.Fleet set, a heterogeneous mix of accelerator and
// host-CPU workers — and starts the worker pool. With cfg.Registry set, cm
// may be nil: the registry's default model takes its place, every worker
// pre-binds it (the construction-time model upload the single-model server
// performs), and further models bind lazily as requests name them.
func New(p pipeline.Platform, cm *edgetpu.CompiledModel, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == (pipeline.RecoveryPolicy{}) {
		cfg.Policy = pipeline.DefaultRecoveryPolicy()
	}
	n := cfg.workers()
	fleet := cfg.fleet()
	hasBin := false
	for _, kind := range fleet {
		hasBin = hasBin || kind == binhd.Name
	}

	// Resolve the default model: in registry mode it stands in for cm.
	var defEntry *registry.Entry
	defModel := ""
	if cfg.Registry != nil {
		ids := cfg.Registry.IDs()
		if len(ids) == 0 {
			return nil, fmt.Errorf("serve: registry holds no models")
		}
		defModel = cfg.DefaultModel
		if defModel == "" {
			defModel = ids[0]
		}
		e, ok := cfg.Registry.Get(defModel)
		if !ok {
			return nil, fmt.Errorf("serve: default model %q is not registered", defModel)
		}
		defEntry = e
		if cm == nil {
			cm = e.Compiled
		}
		for _, id := range ids {
			ent, _ := cfg.Registry.Get(id)
			if err := checkServable(ent.ID, ent.Compiled, cfg.MaxBatch); err != nil {
				return nil, err
			}
			if hasBin && ent.Bipolar == nil {
				return nil, fmt.Errorf("serve: fleet has %q workers but model %q has no bipolar form", binhd.Name, id)
			}
		}
	} else {
		if cfg.DefaultModel != "" {
			return nil, fmt.Errorf("serve: DefaultModel %q without a Registry", cfg.DefaultModel)
		}
		if cm == nil {
			return nil, fmt.Errorf("serve: nil compiled model and no registry")
		}
		if err := checkServable(cm.Model.Name, cm, cfg.MaxBatch); err != nil {
			return nil, err
		}
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		p:        p,
		defModel: defModel,
		pending:  make(map[*request]struct{}),
		met:      newServeMetrics(reg),
		traces:   newTraceRing(cfg.TraceDepth),
	}
	// The legacy golden integrity reference is computed once from the
	// compiled model and shared read-only across all workers; registry-mode
	// goldens live per entry and are computed on first bind.
	if cfg.Registry == nil && cfg.Integrity.Enabled() && cfg.Integrity.ScrubInterval > 0 {
		var err error
		if s.golden, err = integrity.ComputeGolden(cm); err != nil {
			return nil, err
		}
	}
	s.sched = newScheduler(cfg.Tenants)
	if len(cfg.Tenants) > 0 {
		for _, t := range s.sched.tenants {
			t.met = newTenantMetrics(reg, t.spec.Name)
		}
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < n; i++ {
		// Every worker takes its positional seed offsets, whatever its class,
		// so swapping one worker's class never re-seeds its neighbours.
		policy := cfg.Policy
		policy.Seed += uint64(i)
		plan := cfg.Plan
		if len(cfg.Plans) == n {
			plan = cfg.Plans[i]
		} else {
			plan.Seed += uint64(i)
		}
		w := &worker{
			id: i, name: fleet[i], accel: fleet[i] == tpu.Name,
			policy: policy, plan: plan,
			labels: fmt.Sprintf("worker=%q,backend=%q", strconv.Itoa(i), fleet[i]),
			binds:  map[string]*modelBind{},
			stats:  workerStats{Latency: metrics.NewHistogram()},
		}
		if cfg.Registry != nil && w.accel {
			budget := cfg.MemBudget
			if budget == 0 {
				budget = defEntry.Compiled.Config.ParamMemBytes
			}
			mem, err := cfg.Registry.NewDeviceMemory(i, budget, cfg.MemPolicy)
			if err != nil {
				return nil, err
			}
			mem.Instrument(reg, w.labels)
			w.mem = mem
		}
		b, err := s.buildBind(w, defModel, defEntry, cm)
		if err != nil {
			return nil, fmt.Errorf("serve: worker %d (%s): %w", i, fleet[i], err)
		}
		w.cur = b
		w.binds[defModel] = b
		// The construction-time bind is the unbilled initial model load,
		// for host silicon exactly as Preload is for device memory.
		b.loaded = true
		if w.mem != nil {
			// The default model uploads at construction, exactly like the
			// single-model server's LoadModel: resident from the start, no
			// re-setup bill on its first request.
			w.mem.Preload(defEntry)
		}
		s.workers = append(s.workers, w)
	}
	s.wg.Add(n)
	for _, w := range s.workers {
		go s.workerLoop(w)
	}
	return s, nil
}

// checkServable validates one model against the batching config.
func checkServable(name string, cm *edgetpu.CompiledModel, maxBatch int) error {
	if maxBatch <= 1 {
		return nil
	}
	if capacity := cm.BatchCapacity(); maxBatch > capacity {
		return fmt.Errorf("serve: MaxBatch %d exceeds model %q compiled batch capacity %d", maxBatch, name, capacity)
	}
	if !cm.Model.RowSliceable() {
		return fmt.Errorf("serve: model %q is not row-sliceable; cannot micro-batch", name)
	}
	return nil
}

// buildBind constructs one worker's runner (and integrity checker) for one
// model. Called from New for the default model and from the worker
// goroutine for lazy binds; it touches no shared server state beyond the
// (concurrency-safe) metrics registry.
func (s *Server) buildBind(w *worker, id string, e *registry.Entry, cm *edgetpu.CompiledModel) (*modelBind, error) {
	bip := s.cfg.Bipolar
	version := 0
	if e != nil {
		cm = e.Compiled
		bip = e.Bipolar
		version = e.Version
	}
	var r *pipeline.ResilientRunner
	var err error
	switch w.name {
	case hostcpu.Name:
		// Host-CPU workers run the interpreter as their primary engine
		// with no degraded mode; fault plans are accelerator-only and do
		// not apply.
		var prim *hostcpu.Backend
		if prim, err = hostcpu.New(s.p.Host, cm.Model); err == nil {
			r, err = pipeline.WrapBackends(prim, nil, w.policy)
		}
	case binhd.Name:
		// Binary-HDC workers serve the bit-packed model on host silicon
		// at the compiled batch capacity, so row coalescing and the
		// MaxBatch validation hold fleet-wide. Like hostcpu they cannot
		// fault and have no degraded mode.
		var prim *binhd.Backend
		if prim, err = binhd.New(s.p.Host, bip, cm.BatchCapacity()); err == nil {
			r, err = pipeline.WrapBackends(prim, nil, w.policy)
		}
	default:
		r, err = pipeline.NewResilientRunner(s.p, cm, w.plan, w.policy)
	}
	if err != nil {
		return nil, err
	}
	// Stream this worker's reliability events and its backend's invoke
	// telemetry into the shared registry, labelled per worker (and per
	// model in registry mode) so the whole fleet coexists in one namespace.
	labels := w.labels
	if id != "" {
		labels += fmt.Sprintf(",model=%q", id)
	}
	r.Instrument(s.met.reg, labels)
	if ib, ok := r.Backend().(instrumentable); ok {
		ib.Instrument(s.met.reg, labels)
	}
	b := &modelBind{id: id, version: version, entry: e, runner: r}
	if b.integ, err = s.bindIntegrity(w, b, labels); err != nil {
		return nil, err
	}
	return b, nil
}

// bindIntegrity builds the integrity checker for one (worker, model) bind,
// keying scrub/canary state per resident model. A device-backed worker
// scrubs and repairs its hardware; a host-CPU worker has no device SRAM to
// scrub, so it runs canary-only with a ladder starting at reload.
// Binary-HDC workers opt out entirely: the golden canary answers come from
// the quantized graph, which the sign-quantized model does not reproduce
// bit-for-bit, so canaries would misfire on a healthy worker (and there is
// no device state to scrub or repair).
func (s *Server) bindIntegrity(w *worker, b *modelBind, labels string) (*integrity.Checker, error) {
	if w.name == binhd.Name {
		return nil, nil
	}
	pol := s.cfg.Integrity
	if b.entry != nil {
		if b.entry.Integrity != nil {
			pol = b.entry.Integrity
		} else if pol != nil && b.id != s.defModel && len(pol.Canaries) > 0 {
			// The server-level canaries answer against the default model
			// only; a different model would fail them while healthy. Other
			// models run scrub-only unless their entry carries a policy.
			stripped := *pol
			stripped.Canaries = nil
			stripped.CanaryInterval = 0
			pol = &stripped
		}
	}
	if !pol.Enabled() {
		return nil, nil
	}
	var golden *integrity.Golden
	if pol.ScrubInterval > 0 {
		if b.entry != nil {
			var err error
			if golden, err = b.entry.Golden(); err != nil {
				return nil, err
			}
		} else {
			golden = s.golden
		}
	}
	var target integrity.Target
	if dev := b.runner.Device(); dev != nil {
		target = dev
	}
	ck, err := integrity.NewChecker(golden, *pol, integrity.Deps{
		Worker:     w.id,
		Target:     target,
		Reload:     b.runner.ForceReload,
		Quarantine: b.runner.Quarantine,
	})
	if err != nil {
		return nil, fmt.Errorf("worker %d (%s) integrity: %w", w.id, w.name, err)
	}
	ck.Instrument(s.met.reg, labels)
	return ck, nil
}

// Do submits one request under the default tenant and model and blocks
// until it settles — the legacy single-tenant entry point, unchanged in
// behavior. fill populates the input tensor (may run more than once under
// recovery; must be idempotent); consume, if non-nil, reads the output
// tensor before the worker reuses it — copy out anything kept past the call.
func (s *Server) Do(ctx context.Context, fill func(in *tensor.Tensor), consume func(out *tensor.Tensor)) (Result, error) {
	return s.Submit(ctx, Request{Fill: fill, Consume: consume})
}

// Submit submits one annotated request and blocks until it settles:
// completion, shed, deadline, cancellation, or force-drain. A request
// naming an unconfigured tenant or an unregistered model fails immediately
// with a typed error, uncounted — those are caller bugs, not load.
func (s *Server) Submit(ctx context.Context, req Request) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t, ok := s.sched.tenant(req.Tenant)
	if !ok {
		return Result{}, &UnknownTenantError{Name: req.Tenant}
	}
	model := req.Model
	if s.cfg.Registry == nil {
		if model != "" {
			return Result{}, &UnknownModelError{Model: model}
		}
	} else {
		if model == "" {
			model = s.defModel
		}
		if _, ok := s.cfg.Registry.Get(model); !ok {
			return Result{}, &UnknownModelError{Model: model}
		}
	}

	// Deadline precedence: the caller's own context deadline, else the
	// tenant's configured deadline, else the server default.
	var rctx context.Context
	var cancel context.CancelFunc
	if _, has := ctx.Deadline(); !has {
		d := s.cfg.DefaultDeadline
		if t.spec.Deadline > 0 {
			d = t.spec.Deadline
		}
		if d > 0 {
			rctx, cancel = context.WithTimeout(ctx, d)
		} else {
			rctx, cancel = context.WithCancel(ctx)
		}
	} else {
		rctx, cancel = context.WithCancel(ctx)
	}
	r := &request{
		ctx:     rctx,
		cancel:  cancel,
		fill:    req.Fill,
		consume: req.Consume,
		tenant:  t,
		model:   model,
		res:     make(chan outcome, 1),
	}

	s.mu.Lock()
	s.met.submitted.Inc()
	if s.draining {
		s.met.shedDraining.Inc()
		if t.met != nil {
			t.met.shed.Inc()
		}
		s.mu.Unlock()
		cancel()
		return Result{}, &ShedError{Cause: ShedDraining}
	}
	if err := rctx.Err(); err != nil {
		s.account(t, outcome{err: err})
		s.mu.Unlock()
		cancel()
		return Result{}, err
	}
	if s.cfg.QueueCapacity > 0 && s.sched.depth >= s.cfg.QueueCapacity {
		s.met.shedQueueFull.Inc()
		if t.met != nil {
			t.met.shed.Inc()
		}
		s.mu.Unlock()
		cancel()
		return Result{}, &ShedError{Cause: ShedQueueFull}
	}
	if t.spec.Quota > 0 && len(t.q) >= t.spec.Quota {
		s.met.shedTenantQuota.Inc()
		if t.met != nil {
			t.met.shed.Inc()
		}
		s.mu.Unlock()
		cancel()
		return Result{}, &ShedError{Cause: ShedTenantQuota}
	}
	s.met.admitted.Inc()
	if t.met != nil {
		t.met.admitted.Inc()
	}
	r.id = s.reqID.Add(1)
	r.enq = time.Now()
	s.sched.push(t, r)
	depth := int64(s.sched.depth)
	s.met.queueDepth.Set(depth)
	s.met.queueDepthMax.SetMax(depth)
	s.pending[r] = struct{}{}
	s.cond.Signal()
	s.mu.Unlock()

	select {
	case o := <-r.res:
		return o.res, o.err
	case <-rctx.Done():
		// Lost the race or genuinely expired: whoever wins the CAS sends
		// the authoritative outcome, so settle-then-read is safe either way.
		s.settle(r, outcome{err: s.reasonFor(rctx.Err())})
		o := <-r.res
		return o.res, o.err
	}
}

// reasonFor maps a context error to its settlement error: a cancellation
// caused by the drain deadline is a force-failure, not a caller cancel.
func (s *Server) reasonFor(err error) error {
	if s.forced.Load() && errors.Is(err, context.Canceled) {
		return &DrainError{Stage: "in-flight"}
	}
	return err
}

// settle decides a request's fate exactly once: the first caller to win the
// CAS records the accounting and delivers the outcome; later callers are
// no-ops. Returns whether this call won.
func (s *Server) settle(r *request, o outcome) bool {
	if !r.settled.CompareAndSwap(false, true) {
		return false
	}
	now := time.Now()
	s.mu.Lock()
	delete(s.pending, r)
	s.account(r.tenant, o)
	deq := r.deq
	s.mu.Unlock()
	s.traces.record(r, o, deq, now)
	r.res <- o
	r.cancel()
	return true
}

// account buckets one settled outcome into the live registry, attributing
// it to its tenant when tenancy is configured. The metric objects are
// atomic, but callers hold s.mu anyway (the settle path already does),
// keeping outcome accounting ordered with queue-state changes.
func (s *Server) account(t *tenantState, o outcome) {
	var tm *tenantMetrics
	if t != nil {
		tm = t.met
	}
	var de *DrainError
	switch {
	case o.err == nil:
		s.met.completed.Inc()
		if o.res.OnHost {
			s.met.hostFallback.Inc()
		}
		s.met.latency.Observe(o.res.Latency)
		s.met.queueWait.Observe(o.res.QueueWait)
		if tm != nil {
			tm.completed.Inc()
			tm.latency.Observe(o.res.Latency)
		}
	case errors.As(o.err, &de):
		s.met.drainForced.Inc()
	case errors.Is(o.err, context.DeadlineExceeded):
		s.met.deadlineExceeded.Inc()
		if tm != nil {
			tm.deadlineMissed.Inc()
		}
	case errors.Is(o.err, context.Canceled):
		s.met.cancelled.Inc()
	default:
		s.met.failed.Inc()
	}
}

// popLocked moves up to n unsettled requests from the scheduler into batch,
// in priority/weighted-fair order. The first live request fixes the batch's
// model (a coalesced invoke runs one model); further pops take only queue
// heads carrying the same model, so a multi-model backlog never blocks a
// batch — it just caps its occupancy. Requests that settled while queued
// (deadline, force-drain) are dropped without consuming a slot. Caller
// holds s.mu.
func (s *Server) popLocked(n int, batch []*request) []*request {
	now := time.Now()
	model := ""
	constrained := false
	if len(batch) > 0 {
		model, constrained = batch[0].model, true
	}
	for n > 0 {
		var r *request
		if constrained {
			r = s.sched.nextMatching(model)
		} else {
			r = s.sched.next()
		}
		if r == nil {
			break
		}
		if r.settled.Load() {
			continue
		}
		if !constrained {
			model, constrained = r.model, true
		}
		r.deq = now
		batch = append(batch, r)
		n--
	}
	s.met.queueDepth.Set(int64(s.sched.depth))
	return batch
}

// nextBatch blocks for the next coalesced batch of queued requests: up to
// MaxBatch of them, holding an underfull batch open for BatchWindow so more
// arrivals can ride the same invoke. The hold is capped at half of each
// member's remaining deadline slack, so batching never costs a request its
// deadline. nil means the server is draining and the queue is empty, so the
// worker should exit. A worker with integrity maintenance due gets an
// empty non-nil batch so the loop can run the pass while the queue is idle.
func (s *Server) nextBatch(w *worker) []*request {
	maxBatch := max(s.cfg.MaxBatch, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.sched.depth == 0 && !s.draining {
		if w.cur.integ != nil {
			if due, ok := w.cur.integ.NextDue(); ok {
				wait := time.Until(due)
				if wait <= 0 {
					return []*request{}
				}
				// An arrival Signals the cond; the timer broadcasts so a
				// due scrub/canary wakes this worker even if an arrival
				// woke a different one.
				t := time.AfterFunc(wait, s.cond.Broadcast)
				s.cond.Wait()
				t.Stop()
				continue
			}
		}
		s.cond.Wait()
	}
	if s.sched.depth == 0 && s.draining {
		return nil
	}
	batch := s.popLocked(maxBatch, nil)
	if len(batch) == 0 || len(batch) >= maxBatch || s.cfg.BatchWindow <= 0 || s.draining {
		return batch
	}

	// Hold the underfull batch open. Every member tightens the collection
	// deadline to half its remaining slack.
	deadline := time.Now().Add(s.cfg.BatchWindow)
	tighten := func(rs []*request) {
		for _, r := range rs {
			if d, ok := r.ctx.Deadline(); ok {
				if bound := time.Now().Add(time.Until(d) / 2); bound.Before(deadline) {
					deadline = bound
				}
			}
		}
	}
	tighten(batch)
	for len(batch) < maxBatch && !s.draining {
		wait := time.Until(deadline)
		if wait <= 0 {
			break
		}
		// Arrivals Signal the cond; the timer broadcasts so a window expiry
		// always wakes this worker even if an arrival woke a different one.
		t := time.AfterFunc(wait, s.cond.Broadcast)
		s.cond.Wait()
		t.Stop()
		n := len(batch)
		batch = s.popLocked(maxBatch-n, batch)
		tighten(batch[n:])
	}
	return batch
}

// workerLoop drains the queue through one device until shutdown.
func (s *Server) workerLoop(w *worker) {
	defer s.wg.Done()
	for {
		batch := s.nextBatch(w)
		if batch == nil {
			return
		}
		// Filter members that settled or expired while queued.
		live := batch[:0]
		for _, r := range batch {
			if r.settled.Load() {
				continue
			}
			if err := r.ctx.Err(); err != nil {
				s.settle(r, outcome{err: s.reasonFor(err)})
				continue
			}
			live = append(live, r)
		}
		if len(live) > 0 {
			s.invokeBatch(w, live)
		}
		if w.cur.integ != nil {
			s.maintain(w)
		}
	}
}

// maintain runs one worker's due integrity work (scrub, canaries, repairs)
// between batches, on the worker goroutine that owns the device. The pass
// runs under a cancellable context registered as the worker's in-flight
// cancel, so the drain force path can cut a wedged canary short; a server
// already draining skips the pass entirely — shutdown work should not be
// delayed by maintenance.
func (s *Server) maintain(w *worker) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.invokeMu.Lock()
	w.invokeCancel = cancel
	w.invokeMu.Unlock()
	defer func() {
		w.invokeMu.Lock()
		w.invokeCancel = nil
		w.invokeMu.Unlock()
	}()

	b := w.cur
	invoke := func(ctx context.Context, c integrity.Canary) (int, float64, error) {
		_, err := b.runner.InvokeBatchCtx(ctx, 0, func(in *tensor.Tensor) {
			copy(in.F32[:len(c.Input)], c.Input)
		})
		if err != nil {
			return 0, 0, err
		}
		return int(b.runner.Output(0).I32[0]), integrity.MarginRow(b.runner.Output(1), 0), nil
	}
	b.integ.Maintain(ctx, invoke)

	// Repairs and canary invokes move breaker and reliability state;
	// republish both so Health and Report see them without an invoke.
	w.state.Store(int32(b.runner.BreakerState()))
	rep := b.runner.Report()
	w.mu.Lock()
	b.report = rep
	w.mu.Unlock()
}

// bind points w at model before an invoke, lazily building (or rebuilding,
// after a hot swap) the runner, and charges the device-memory admission:
// the returned swap is the re-setup this invoke must be billed because the
// model was not resident — zero on a residency hit, and always zero in
// legacy mode. Runs on the worker goroutine; the binds-map write is under
// w.mu so Report can walk the map concurrently.
func (s *Server) bind(w *worker, model string) (*modelBind, time.Duration, error) {
	if s.cfg.Registry == nil {
		return w.cur, 0, nil
	}
	e, ok := s.cfg.Registry.Get(model)
	if !ok {
		return nil, 0, &UnknownModelError{Model: model}
	}
	b := w.binds[model]
	if b == nil || b.version != e.Version {
		nb, err := s.buildBind(w, model, e, nil)
		if err != nil {
			return nil, 0, err
		}
		w.mu.Lock()
		w.binds[model] = nb
		w.mu.Unlock()
		b = nb
	}
	w.cur = b
	var swap time.Duration
	if w.mem != nil {
		swap = w.mem.Acquire(e).Setup
	} else if !b.loaded {
		// A host-silicon worker has no simulated device memory; it pays a
		// one-time model-load bill per bind instead — one memory-bound
		// pass over the serialized blob.
		swap = e.HostSetup(s.p.Host)
		b.loaded = true
	}
	if swap > 0 {
		w.mu.Lock()
		b.swap += swap
		w.mu.Unlock()
	}
	return b, swap, nil
}

// invokeBatch serves a coalesced batch through one device invoke: members'
// samples pack into consecutive rows of the input tensor, the runner executes
// the occupied row prefix, and each member reads back its own output row.
// With MaxBatch ≤ 1 the batch is always a single request and the invoke takes
// exactly the pre-batching path (full-tensor fill, full invoke). All batch
// members share one model (popLocked guarantees it); the worker binds it
// first, paying the re-setup bill if the device memory missed.
func (s *Server) invokeBatch(w *worker, batch []*request) {
	rows := len(batch)
	start := time.Now()
	batched := s.cfg.MaxBatch > 1

	b, swap, berr := s.bind(w, batch[0].model)
	if berr != nil {
		for _, r := range batch {
			s.settle(r, outcome{err: berr})
		}
		return
	}

	// One context governs the merged invoke. A single-request invoke uses
	// the request's own context; a multi-request one gets a context bounded
	// by the latest member deadline — members expiring earlier settle
	// individually from Do — and cancellable by the drain force path. The
	// merged context is detached from the members' parents, so a watcher
	// per member cancels it once the last live member settles or is
	// cancelled: an invoke (or its pace interval) must not keep the worker
	// occupied when nobody is left waiting for the result.
	ictx := batch[0].ctx
	var icancel context.CancelFunc
	if rows > 1 {
		latest, all := time.Time{}, true
		for _, r := range batch {
			d, ok := r.ctx.Deadline()
			if !ok {
				all = false
				break
			}
			if d.After(latest) {
				latest = d
			}
		}
		if all {
			ictx, icancel = context.WithDeadline(context.Background(), latest)
		} else {
			ictx, icancel = context.WithCancel(context.Background())
		}
		defer icancel()
		var liveMembers atomic.Int64
		liveMembers.Store(int64(rows))
		for _, r := range batch {
			stop := context.AfterFunc(r.ctx, func() {
				if liveMembers.Add(-1) == 0 {
					icancel()
				}
			})
			defer stop()
		}
		w.invokeMu.Lock()
		w.invokeCancel = icancel
		w.invokeMu.Unlock()
		defer func() {
			w.invokeMu.Lock()
			w.invokeCancel = nil
			w.invokeMu.Unlock()
		}()
	}

	// Unbatched, the lone request sees the whole tensors and the invoke is
	// a full one (rows 0), so MaxBatch ≤ 1 keeps full-invoke pricing.
	slot, invRows := w.rowView, rows
	if !batched {
		slot, invRows = wholeTensor, 0
	}
	before := b.runner.Report().FallbackInvokes
	t, err := b.runner.InvokeBatchCtx(ictx, invRows, func(in *tensor.Tensor) {
		for i, r := range batch {
			r.fill(slot(in, i))
		}
	})
	rep := b.runner.Report()
	onHost := rep.FallbackInvokes > before
	if err == nil {
		out := b.runner.Output(0)
		for i, r := range batch {
			if r.consume != nil && !r.settled.Load() {
				r.consume(slot(out, i))
			}
		}
	}
	w.state.Store(int32(b.runner.BreakerState()))
	w.mu.Lock()
	b.report = rep
	w.mu.Unlock()

	span := &invokeSpan{
		worker:  w.id,
		backend: w.name,
		batch:   rows,
		breaker: b.runner.BreakerState(),
		onHost:  onHost,
		start:   start,
	}

	if err != nil {
		span.end = time.Now()
		// A merged invoke fails as a unit; settle each member with its own
		// context error when it has one, else the batch error. (A
		// single-request invoke propagates the invoke error unchanged.)
		for _, r := range batch {
			cause := err
			if rows > 1 {
				if cerr := r.ctx.Err(); cerr != nil {
					cause = cerr
				}
			}
			s.settle(r, outcome{err: s.reasonFor(cause), inv: span})
		}
		return
	}

	// A residency miss paid its re-setup before the invoke could run; bill
	// it into the parameter-streaming phase so the cost model (and pacing,
	// which scales off the simulated total) both see it.
	t.WeightStream += swap

	s.met.batchInvokes.Inc()
	s.met.batchRows.Add(int64(rows))
	s.met.batchRowsMax.SetMax(int64(rows))
	per := t.Total() / time.Duration(rows)
	for i := 0; i < rows; i++ {
		s.met.perSample.Observe(per)
	}

	pace := s.cfg.PacePerInvoke
	if s.cfg.PaceScale > 0 {
		pace += time.Duration(s.cfg.PaceScale * float64(t.Total()))
	}
	if pace > 0 {
		// Occupy the worker for the pace interval, but let a cancelled
		// invoke (deadline, force-drain) release it early — the result is
		// already computed either way.
		timer := time.NewTimer(pace)
		select {
		case <-timer.C:
		case <-ictx.Done():
			timer.Stop()
		}
	}
	now := time.Now()
	span.end = now
	w.mu.Lock()
	w.stats.Invokes++
	w.stats.Rows += rows
	if rows > w.stats.MaxRows {
		w.stats.MaxRows = rows
	}
	w.stats.SimTime += t.Total()
	w.stats.Busy += now.Sub(start)
	b.invokes++
	w.mu.Unlock()
	for _, r := range batch {
		lat := now.Sub(r.enq)
		won := s.settle(r, outcome{res: Result{
			Timing:    t,
			OnHost:    onHost,
			Device:    w.id,
			Backend:   w.name,
			BatchSize: rows,
			QueueWait: start.Sub(r.enq),
			Latency:   lat,
			Tenant:    r.tenant.spec.Name,
			Model:     r.model,
			Swap:      swap,
		}, inv: span})
		if won {
			w.mu.Lock()
			w.stats.Requests++
			w.stats.Latency.Observe(lat)
			b.requests++
			w.mu.Unlock()
		}
	}
}

// Health derives the server state from the per-device breakers: all closed
// is Healthy, none closed is Critical, anything between is Degraded.
func (s *Server) Health() Health {
	closed := 0
	for _, w := range s.workers {
		if pipeline.BreakerState(w.state.Load()) == pipeline.BreakerClosed {
			closed++
		}
	}
	switch closed {
	case len(s.workers):
		return Healthy
	case 0:
		return Critical
	}
	return Degraded
}

// Drain stops admitting, lets the workers finish queued and in-flight work,
// and waits for them to exit. The wait is bounded by the earlier of ctx and
// the configured DrainDeadline; when the bound fires, still-queued requests
// are failed with DrainError{"queued"}, in-flight requests are cancelled
// (settling as DrainError{"in-flight"}), and Drain returns a *DrainError
// after the workers exit. A clean drain returns nil. Drain is idempotent;
// concurrent calls all wait for the same shutdown.
func (s *Server) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.DrainDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainDeadline)
		defer cancel()
	}
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	// Deadline fired: force the stragglers.
	s.forced.Store(true)
	s.mu.Lock()
	queued := s.sched.takeAll()
	s.met.queueDepth.Set(0)
	var inflight []*request
	for r := range s.pending {
		inflight = append(inflight, r)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, r := range queued {
		s.settle(r, outcome{err: &DrainError{Stage: "queued"}})
	}
	for _, r := range inflight {
		r.cancel() // settles as DrainError{"in-flight"} via reasonFor
	}
	// A multi-request invoke runs under a merged context that member cancels
	// don't reach; fire each worker's in-flight cancel so a coalesced invoke
	// cannot outlive the drain deadline either.
	for _, w := range s.workers {
		w.invokeMu.Lock()
		if c := w.invokeCancel; c != nil {
			c()
		}
		w.invokeMu.Unlock()
	}
	<-done
	return &DrainError{Stage: "deadline"}
}

// Close drains with only the configured DrainDeadline as the bound.
func (s *Server) Close() error { return s.Drain(context.Background()) }

// Metrics returns the live registry the server streams into: the Config's
// registry when one was supplied, the server's private one otherwise. Its
// Snapshot is safe at any time, including while workers are mid-invoke, and
// at quiescence (after Drain) it agrees with Report exactly.
func (s *Server) Metrics() *metrics.Registry { return s.met.reg }

// Report snapshots the serving counters, latency histograms, aggregated
// reliability accounting across all workers, the per-backend-class
// breakdowns, and the current health. The counters are materialized from
// the live registry — the report is a view of the same numbers a metrics
// Snapshot exposes, not a second set of books.
func (s *Server) Report() ServeReport {
	s.mu.Lock()
	c := s.met.counters()
	s.mu.Unlock()
	rep := ServeReport{counters: c, Devices: len(s.workers), Fleet: s.cfg.fleet(), Health: s.Health()}
	byName := make(map[string]int) // backend class -> index into rep.Backends
	type modelAgg struct {
		requests, invokes int
		swap              time.Duration
	}
	models := map[string]*modelAgg{}
	for _, w := range s.workers {
		w.mu.Lock()
		st := w.stats
		st.Latency = w.stats.Latency.Clone()
		var wrel pipeline.ReliabilityReport
		var integs []*integrity.Checker
		for _, mb := range w.binds {
			mergeReliability(&wrel, mb.report)
			if mb.integ != nil {
				integs = append(integs, mb.integ)
			}
			if s.cfg.Registry != nil {
				a := models[mb.id]
				if a == nil {
					a = &modelAgg{}
					models[mb.id] = a
				}
				a.requests += mb.requests
				a.invokes += mb.invokes
				a.swap += mb.swap
			}
		}
		w.mu.Unlock()
		mergeReliability(&rep.Reliability, wrel)

		bi, ok := byName[w.name]
		if !ok {
			bi = len(rep.Backends)
			byName[w.name] = bi
			rep.Backends = append(rep.Backends, BackendStats{
				Name:    w.name,
				Latency: metrics.NewHistogram(),
			})
		}
		b := &rep.Backends[bi]
		b.Workers++
		if pipeline.BreakerState(w.state.Load()) == pipeline.BreakerClosed {
			b.BreakersClosed++
		}
		b.Invokes += st.Invokes
		b.Rows += st.Rows
		if st.MaxRows > b.MaxRows {
			b.MaxRows = st.MaxRows
		}
		b.Requests += st.Requests
		b.SimTime += st.SimTime
		b.Busy += st.Busy
		b.Latency.Merge(st.Latency)
		mergeReliability(&b.Reliability, wrel)

		for _, ck := range integs {
			if rep.Integrity == nil {
				rep.Integrity = &integrity.Report{}
			}
			rep.Integrity.Merge(ck.Report())
		}
		if w.mem != nil {
			rep.Memory = append(rep.Memory, w.mem.Stats())
		}
	}
	if len(s.cfg.Tenants) > 0 {
		for _, t := range s.sched.tenants {
			rep.Tenants = append(rep.Tenants, TenantStats{
				Name:           t.spec.Name,
				Priority:       t.spec.Priority,
				Weight:         t.spec.weight(),
				Admitted:       int(t.met.admitted.Value()),
				Shed:           int(t.met.shed.Value()),
				Completed:      int(t.met.completed.Value()),
				DeadlineMissed: int(t.met.deadlineMissed.Value()),
				Latency:        t.met.latency.Snapshot(),
			})
		}
	}
	if s.cfg.Registry != nil {
		for _, id := range s.cfg.Registry.IDs() {
			e, _ := s.cfg.Registry.Get(id)
			ms := ModelStats{ID: id, Version: e.Version, Footprint: e.Footprint, Setup: e.Setup}
			if a := models[id]; a != nil {
				ms.Requests, ms.Invokes, ms.Swap = a.requests, a.invokes, a.swap
			}
			rep.Models = append(rep.Models, ms)
		}
	}
	return rep
}

// IntegrityEvents returns every worker's retained repair-ladder events in
// worker order (each bind's events are Seq-ordered). Empty when the
// server runs without an integrity policy, or nothing ever broke.
func (s *Server) IntegrityEvents() []integrity.Event {
	var evs []integrity.Event
	for _, w := range s.workers {
		w.mu.Lock()
		for _, b := range w.binds {
			if b.integ != nil {
				evs = append(evs, b.integ.Events()...)
			}
		}
		w.mu.Unlock()
	}
	return evs
}

// RegistryEvents merges every accelerated worker's retained residency
// transitions (hits, misses, evictions) into one Seq-ordered stream. Empty
// outside registry mode.
func (s *Server) RegistryEvents() []registry.Event {
	var evs []registry.Event
	for _, w := range s.workers {
		if w.mem != nil {
			evs = append(evs, w.mem.Events()...)
		}
	}
	registry.SortEvents(evs)
	return evs
}

// mergeReliability accumulates one device's reliability report into agg.
func mergeReliability(agg *pipeline.ReliabilityReport, r pipeline.ReliabilityReport) {
	agg.Invokes += r.Invokes
	agg.DeviceInvokes += r.DeviceInvokes
	agg.Retries += r.Retries
	agg.LinkFaults += r.LinkFaults
	agg.Resets += r.Resets
	agg.Reloads += r.Reloads
	agg.FallbackInvokes += r.FallbackInvokes
	agg.BreakerTripped = agg.BreakerTripped || r.BreakerTripped
	agg.BreakerTrips += r.BreakerTrips
	agg.BreakerProbes += r.BreakerProbes
	agg.BreakerCloses += r.BreakerCloses
	agg.BackoffTime += r.BackoffTime
	agg.ReloadTime += r.ReloadTime
	agg.WastedTime += r.WastedTime
	agg.FallbackTime += r.FallbackTime
}
