package pipeline

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"hdcedge/internal/backend"
	"hdcedge/internal/backend/hostcpu"
	"hdcedge/internal/backend/tpu"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/metrics"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// This file is the resilient runtime on top of the backend seam:
// typed-error classification, bounded retry with seeded exponential backoff,
// automatic model reload after device resets, a three-state circuit breaker
// (closed → open → half-open probe), and graceful degradation to a
// secondary backend (classically the host CPU). The design goal is that a
// training or inference run never hard-fails on transient accelerator
// faults — it completes with degraded throughput instead.
//
// Two invoke entry points, one per clock, share one loop: InvokeBatch is
// the batch path, where backoff is accounted in simulated time only;
// InvokeBatchCtx is the serving path, where backoff is also waited out in
// wall-clock time and the context can cancel the wait (and the whole
// invoke) mid-flight.

// RecoveryPolicy controls how a ResilientRunner reacts to transient device
// faults.
type RecoveryPolicy struct {
	// MaxRetries bounds the device re-attempts after the first failed try
	// of one invoke. When they are exhausted the invoke completes on the
	// host CPU instead.
	MaxRetries int

	// BaseBackoff is the wait before the first retry; each further retry
	// doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// JitterFrac spreads each backoff uniformly over ±JitterFrac of its
	// nominal value, drawn from the runner's seeded stream. Must lie in
	// [0, 1]. Ignored under JitterFull.
	JitterFrac float64

	// Jitter selects the jitter distribution. JitterEqual (the zero value)
	// keeps the legacy ±JitterFrac spread; JitterFull draws each wait
	// uniformly from [0, nominal], which decorrelates N workers retrying a
	// shared fault — with equal jitter their waits still cluster inside a
	// ±20% band and re-collide as a retry storm, while full jitter spreads
	// them across the whole backoff window.
	Jitter JitterMode

	// BreakerThreshold is how many consecutive invokes must exhaust their
	// retries before the circuit breaker opens and routes further invokes
	// to the host CPU.
	BreakerThreshold int

	// BreakerCooldown is how many invokes an open breaker serves on the
	// host before it half-opens and probes the device with a single trial
	// attempt: success closes the breaker, failure re-opens it for another
	// cooldown. Zero keeps an opened breaker open permanently (the
	// pre-probe behavior).
	BreakerCooldown int

	// Seed drives the backoff jitter stream.
	Seed uint64
}

// JitterMode selects the shape of the backoff jitter distribution.
type JitterMode int

const (
	// JitterEqual spreads each wait over ±JitterFrac of nominal (legacy;
	// bit-identical to the pre-mode behavior).
	JitterEqual JitterMode = iota
	// JitterFull draws each wait uniformly from [0, nominal] — the
	// anti-retry-storm distribution.
	JitterFull
)

// String renders the mode.
func (m JitterMode) String() string {
	switch m {
	case JitterEqual:
		return "equal"
	case JitterFull:
		return "full"
	}
	return fmt.Sprintf("jitter(%d)", int(m))
}

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed routes invokes to the device (healthy).
	BreakerClosed BreakerState = iota
	// BreakerOpen routes invokes to the host while the cooldown runs.
	BreakerOpen
	// BreakerHalfOpen marks the next invoke as a single-attempt device
	// probe that decides between closing and re-opening.
	BreakerHalfOpen
)

// String renders the state for reports and health endpoints.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breaker(%d)", int(s))
}

// DefaultRecoveryPolicy returns the policy used by the fault-rate sweeps:
// three retries with 200µs..10ms backoff, a breaker after four consecutive
// failed invokes, and a half-open probe every eight host-served invokes.
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{
		MaxRetries:       3,
		BaseBackoff:      200 * time.Microsecond,
		MaxBackoff:       10 * time.Millisecond,
		JitterFrac:       0.2,
		BreakerThreshold: 4,
		BreakerCooldown:  8,
		Seed:             1,
	}
}

// Validate checks the policy for sanity.
func (p RecoveryPolicy) Validate() error {
	if p.MaxRetries < 0 {
		return fmt.Errorf("pipeline: negative MaxRetries %d", p.MaxRetries)
	}
	if p.BaseBackoff <= 0 {
		return fmt.Errorf("pipeline: BaseBackoff %v must be positive", p.BaseBackoff)
	}
	if p.MaxBackoff < p.BaseBackoff {
		return fmt.Errorf("pipeline: MaxBackoff %v below BaseBackoff %v", p.MaxBackoff, p.BaseBackoff)
	}
	if math.IsNaN(p.JitterFrac) || p.JitterFrac < 0 || p.JitterFrac > 1 {
		return fmt.Errorf("pipeline: JitterFrac %v outside [0, 1]", p.JitterFrac)
	}
	if p.Jitter != JitterEqual && p.Jitter != JitterFull {
		return fmt.Errorf("pipeline: unknown JitterMode %d", int(p.Jitter))
	}
	if p.BreakerThreshold < 1 {
		return fmt.Errorf("pipeline: BreakerThreshold %d must be at least 1", p.BreakerThreshold)
	}
	if p.BreakerCooldown < 0 {
		return fmt.Errorf("pipeline: negative BreakerCooldown %d", p.BreakerCooldown)
	}
	return nil
}

// backoff returns the wait before retry `attempt` (1-based): exponential
// growth from BaseBackoff capped at MaxBackoff, with seeded jitter drawn
// from r in the configured JitterMode. The result is never negative and
// never exceeds MaxBackoff·(1+JitterFrac), for any seed, attempt, or
// duration combination (fuzz-checked).
func (p RecoveryPolicy) backoff(attempt int, r *rng.RNG) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := float64(p.BaseBackoff) * math.Pow(2, float64(attempt-1))
	if ceil := float64(p.MaxBackoff); d > ceil || math.IsInf(d, 1) {
		d = ceil
	}
	switch {
	case p.Jitter == JitterFull && r != nil:
		d *= r.Float64()
	case p.JitterFrac > 0 && r != nil:
		d *= 1 + p.JitterFrac*(2*r.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	// float64(MaxInt64) rounds up to 2^63, which overflows the conversion;
	// anything at or above it must saturate explicitly.
	if d >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(d)
}

// ReliabilityReport records what a ResilientRunner did to keep a run alive.
type ReliabilityReport struct {
	Invokes         int // invokes requested by the caller
	DeviceInvokes   int // device attempts, including failed ones
	Retries         int // device re-attempts after transient errors
	LinkFaults      int // transient transfer failures observed
	Resets          int // reset-class failures observed (model dropped)
	Reloads         int // LoadModel repayments performed
	FallbackInvokes int // invokes completed on the host CPU
	BreakerTripped  bool
	BreakerTrips    int // closed→open transitions (including probe re-trips)
	BreakerProbes   int // half-open trial invokes attempted
	BreakerCloses   int // successful probes that closed the breaker again

	BackoffTime  time.Duration // simulated time spent waiting between retries
	ReloadTime   time.Duration // simulated time re-paying model setup
	WastedTime   time.Duration // simulated device time consumed by failed attempts
	FallbackTime time.Duration // simulated host time spent in degraded mode
}

// Overhead sums the simulated time reliability cost on top of the useful
// device work: everything the run would not have paid had the accelerator
// stayed healthy.
func (r ReliabilityReport) Overhead() time.Duration {
	return r.BackoffTime + r.ReloadTime + r.WastedTime
}

// String renders a one-paragraph summary for CLI consumption.
func (r ReliabilityReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "reliability: %d invokes (%d on device, %d on host fallback)",
		r.Invokes, r.Invokes-r.FallbackInvokes, r.FallbackInvokes)
	fmt.Fprintf(&sb, ", %d retries, %d link faults, %d resets, %d reloads",
		r.Retries, r.LinkFaults, r.Resets, r.Reloads)
	if r.BreakerTripped {
		fmt.Fprintf(&sb, ", circuit breaker TRIPPED (%d trips, %d probes, %d closes)",
			r.BreakerTrips, r.BreakerProbes, r.BreakerCloses)
	}
	fmt.Fprintf(&sb, "; overhead %v (backoff %v, reload %v, wasted %v), fallback compute %v",
		r.Overhead().Round(time.Microsecond), r.BackoffTime.Round(time.Microsecond),
		r.ReloadTime.Round(time.Microsecond), r.WastedTime.Round(time.Microsecond),
		r.FallbackTime.Round(time.Microsecond))
	return sb.String()
}

// ResilientRunner wraps a primary execution backend with retry, reload,
// circuit breaking and graceful degradation to a secondary backend. It is
// not safe for concurrent use; drive it from one goroutine like the
// backends it wraps.
type ResilientRunner struct {
	primary   backend.Backend
	secondary backend.Backend

	// makeSecondary lazily constructs the secondary the first time the
	// runner degrades, so a healthy run never pays for an engine it does
	// not use. nil (with a nil secondary) means there is no degraded mode.
	makeSecondary func() (backend.Backend, error)

	policy RecoveryPolicy
	jitter *rng.RNG

	report          ReliabilityReport
	consecutive     int
	breaker         BreakerState
	cooldownLeft    int
	pendingReload   bool
	lastWasFallback bool

	// quarantined pins the breaker open permanently: the integrity layer
	// found damage the repair ladder could not fix, so no cooldown or
	// half-open probe may route work back to the primary.
	quarantined bool

	// live streams the reliability events into a metrics registry as they
	// happen (see Instrument). nil leaves the runner uninstrumented.
	live *runnerMetrics

	// SetupTime is the primary's initial load cost (not counted as
	// overhead).
	SetupTime time.Duration
}

// runnerMetrics holds the live-registry handles one instrumented runner
// streams into. Every field is an atomic metric, so recording from the
// runner's single goroutine never blocks a concurrent Snapshot.
type runnerMetrics struct {
	invokes, deviceInvokes, retries *metrics.Counter
	linkFaults, resets, reloads     *metrics.Counter
	fallbackInvokes                 *metrics.Counter
	breakerTrips, probes, closes    *metrics.Counter
	probeSuccesses, probeReTrips    *metrics.Counter
	breakerTransitions              *metrics.Counter
	breakerState                    *metrics.Gauge
}

// Instrument streams the runner's reliability events — invokes, retries,
// faults, reloads, host fallbacks, and every breaker state transition —
// into reg as they happen. labels is an inline Prometheus label set
// (e.g. `worker="0",backend="tpu"`) appended to every metric name so a
// fleet of runners shares one registry without colliding. Call before the
// first invoke; the runner itself stays single-goroutine.
func (r *ResilientRunner) Instrument(reg *metrics.Registry, labels string) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	r.live = &runnerMetrics{
		invokes:            reg.Counter("hdc_runner_invokes_total" + suffix),
		deviceInvokes:      reg.Counter("hdc_runner_device_invokes_total" + suffix),
		retries:            reg.Counter("hdc_runner_retries_total" + suffix),
		linkFaults:         reg.Counter("hdc_runner_link_faults_total" + suffix),
		resets:             reg.Counter("hdc_runner_resets_total" + suffix),
		reloads:            reg.Counter("hdc_runner_reloads_total" + suffix),
		fallbackInvokes:    reg.Counter("hdc_runner_fallback_invokes_total" + suffix),
		breakerTrips:       reg.Counter("hdc_runner_breaker_trips_total" + suffix),
		probes:             reg.Counter("hdc_runner_breaker_probes_total" + suffix),
		closes:             reg.Counter("hdc_runner_breaker_closes_total" + suffix),
		probeSuccesses:     reg.Counter(`hdc_runner_breaker_probe_outcomes_total{outcome="success"` + probeLabelTail(labels)),
		probeReTrips:       reg.Counter(`hdc_runner_breaker_probe_outcomes_total{outcome="retrip"` + probeLabelTail(labels)),
		breakerTransitions: reg.Counter("hdc_runner_breaker_transitions_total" + suffix),
		breakerState:       reg.Gauge("hdc_runner_breaker_state" + suffix),
	}
	r.live.breakerState.Set(int64(r.breaker))
}

// probeLabelTail closes the label set of the probe-outcome counters: the
// outcome label is always present, the caller's labels ride behind it.
func probeLabelTail(labels string) string {
	if labels == "" {
		return "}"
	}
	return "," + labels + "}"
}

// The on* recorders are nil-safe so an uninstrumented runner pays a single
// pointer test per event.

func (m *runnerMetrics) onInvoke() {
	if m != nil {
		m.invokes.Inc()
	}
}

func (m *runnerMetrics) onDeviceInvoke() {
	if m != nil {
		m.deviceInvokes.Inc()
	}
}

func (m *runnerMetrics) onRetry() {
	if m != nil {
		m.retries.Inc()
	}
}

func (m *runnerMetrics) onFault(reset bool) {
	if m == nil {
		return
	}
	if reset {
		m.resets.Inc()
	} else {
		m.linkFaults.Inc()
	}
}

func (m *runnerMetrics) onReload() {
	if m != nil {
		m.reloads.Inc()
	}
}

func (m *runnerMetrics) onFallback() {
	if m != nil {
		m.fallbackInvokes.Inc()
	}
}

// onProbeOutcome publishes how one half-open trial invoke ended: success
// (the breaker closes) or a re-trip (back to open for another cooldown).
// Without these the state gauge shows only where the breaker is now —
// probe churn (a device that passes one probe in five and keeps flapping)
// is invisible in /metrics.
func (m *runnerMetrics) onProbeOutcome(success bool) {
	if m == nil {
		return
	}
	if success {
		m.probeSuccesses.Inc()
	} else {
		m.probeReTrips.Inc()
	}
}

// onBreaker publishes a breaker state transition.
func (m *runnerMetrics) onBreaker(s BreakerState) {
	if m == nil {
		return
	}
	m.breakerState.Set(int64(s))
	m.breakerTransitions.Inc()
	switch s {
	case BreakerOpen:
		m.breakerTrips.Inc()
	case BreakerHalfOpen:
		m.probes.Inc()
	case BreakerClosed:
		m.closes.Inc()
	}
}

// NewResilientRunner creates a TPU backend for the platform's accelerator,
// loads cm, arms the fault plan, and wraps it with the recovery policy; the
// host CPU (priced by the platform's cpuarch spec) stands by as the
// secondary backend. A disabled plan plus a healthy device makes the runner
// a zero-overhead pass-through: its InvokeBatch timing is bit-identical to
// driving the device directly.
func NewResilientRunner(p Platform, cm *edgetpu.CompiledModel, plan edgetpu.FaultPlan, policy RecoveryPolicy) (*ResilientRunner, error) {
	if !p.HasAccel() {
		return nil, fmt.Errorf("pipeline: platform %s has no accelerator", p.Name)
	}
	primary, err := tpu.New(*p.Accel, cm, plan)
	if err != nil {
		return nil, err
	}
	r, err := WrapBackends(primary, nil, policy)
	if err != nil {
		return nil, err
	}
	r.makeSecondary = func() (backend.Backend, error) {
		return hostcpu.New(p.Host, cm.Model)
	}
	r.SetupTime = primary.SetupTime
	return r, nil
}

// WrapBackends wraps an already-constructed primary backend with the
// recovery policy, degrading to secondary once device attempts are
// exhausted or the breaker opens. secondary may be nil, in which case an
// invoke that would degrade fails instead — appropriate for backends (like
// the host CPU itself) that never fault.
func WrapBackends(primary, secondary backend.Backend, policy RecoveryPolicy) (*ResilientRunner, error) {
	if primary == nil {
		return nil, fmt.Errorf("pipeline: nil primary backend")
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	return &ResilientRunner{
		primary:   primary,
		secondary: secondary,
		policy:    policy,
		jitter:    rng.New(policy.Seed),
	}, nil
}

// Backend exposes the primary backend.
func (r *ResilientRunner) Backend() backend.Backend { return r.primary }

// Device exposes the wrapped simulator device when the primary backend is
// device-backed (for tests and fault-stat readers), and nil otherwise.
func (r *ResilientRunner) Device() *edgetpu.Device {
	if d, ok := r.primary.(interface{ Device() *edgetpu.Device }); ok {
		return d.Device()
	}
	return nil
}

// Degraded reports whether the circuit breaker currently routes invokes
// away from the device (open or half-open).
func (r *ResilientRunner) Degraded() bool { return r.breaker != BreakerClosed }

// BreakerState returns the circuit breaker's current position.
func (r *ResilientRunner) BreakerState() BreakerState { return r.breaker }

// Report returns a copy of the reliability accounting so far.
func (r *ResilientRunner) Report() ReliabilityReport { return r.report }

// Output returns the i-th model output tensor of whichever backend ran the
// last successful invoke (primary, or secondary in degraded mode).
func (r *ResilientRunner) Output(i int) *tensor.Tensor {
	if r.secondary != nil && r.lastWasFallback {
		return r.secondary.Output(i)
	}
	return r.primary.Output(i)
}

// InvokeBatch runs the model once on the first rows sample rows of the
// compiled batch: the device executes and prices only the occupied rows
// (edgetpu.Device.InvokeBatch), and a host fallback runs and is priced at
// the same effective batch. rows <= 0 (or >= the model's batch capacity)
// is a full invoke. fill receives the full-capacity input tensor and must
// populate the first rows rows; it may be called more than once when
// recovery reloads the model or falls back to the host, so it must be
// idempotent. The returned timing covers the whole invoke including
// recovery overhead; on the healthy path it is exactly the device's own
// timing. Backoff waits are accounted in simulated time only — InvokeBatch
// never sleeps.
func (r *ResilientRunner) InvokeBatch(rows int, fill func(in *tensor.Tensor)) (edgetpu.Timing, error) {
	return r.invoke(nil, rows, fill)
}

// InvokeBatchCtx is InvokeBatch under a context: the deadline or
// cancellation is checked before every device attempt and during backoff,
// which is waited out in real wall-clock time (a cancelled request returns
// ctx.Err() immediately instead of sleeping the backoff out). The
// simulated-time accounting is identical to InvokeBatch's, so with a
// healthy device the returned timing is bit-identical to the direct path.
// It is the serving path's entry point.
func (r *ResilientRunner) InvokeBatchCtx(ctx context.Context, rows int, fill func(in *tensor.Tensor)) (edgetpu.Timing, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return r.invoke(ctx, rows, fill)
}

// invoke is the shared retry/reload/breaker loop. A nil ctx selects the
// batch behavior (no wall-clock waits, no cancellation points); rows
// limits device execution and pricing to the occupied sample rows.
func (r *ResilientRunner) invoke(ctx context.Context, rows int, fill func(in *tensor.Tensor)) (edgetpu.Timing, error) {
	r.report.Invokes++
	r.live.onInvoke()
	var waste edgetpu.Timing
	if err := ctxErr(ctx); err != nil {
		return waste, err
	}

	// Breaker gate: an open breaker serves from the host until the
	// cooldown elapses, then half-opens; a half-open breaker lets exactly
	// one trial attempt through below.
	probing := false
	if r.breaker != BreakerClosed {
		if r.quarantined {
			// A quarantined primary is never probed again: every invoke
			// serves from the secondary until the runner is rebuilt.
			return r.invokeSecondary(fill, waste, rows)
		}
		if r.breaker == BreakerOpen && r.policy.BreakerCooldown > 0 {
			r.cooldownLeft--
			if r.cooldownLeft <= 0 {
				r.breaker = BreakerHalfOpen
				r.live.onBreaker(BreakerHalfOpen)
			}
		}
		if r.breaker == BreakerOpen {
			return r.invokeSecondary(fill, waste, rows)
		}
		probing = true
		r.report.BreakerProbes++
	}

	attempts := 0
	for {
		if r.pendingReload {
			// A previous invoke abandoned the device mid-recovery (host
			// fallback after a reset-class error): re-pay the model load
			// before attempting the device again.
			if err := r.reload(&waste); err != nil {
				return waste, err
			}
		}
		if fill != nil {
			fill(r.primary.Input(0))
		}
		if err := ctxErr(ctx); err != nil {
			return waste, err
		}
		attempts++
		r.report.DeviceInvokes++
		r.live.onDeviceInvoke()
		t, err := r.primary.InvokeBatch(rows)
		if err == nil {
			r.consecutive = 0
			r.lastWasFallback = false
			if probing {
				r.breaker = BreakerClosed
				r.report.BreakerCloses++
				r.live.onProbeOutcome(true)
				r.live.onBreaker(BreakerClosed)
			}
			t.Add(waste)
			return t, nil
		}
		waste.Add(t)
		r.report.WastedTime += t.Total()
		if !backend.IsRetryable(err) {
			return waste, fmt.Errorf("pipeline: resilient invoke failed permanently: %w", err)
		}
		if backend.NeedsReload(err) {
			r.report.Resets++
			r.live.onFault(true)
			r.pendingReload = true
		} else {
			r.report.LinkFaults++
			r.live.onFault(false)
		}
		if probing {
			// The trial attempt failed: back to open for another cooldown.
			r.live.onProbeOutcome(false)
			r.trip()
			return r.invokeSecondary(fill, waste, rows)
		}
		if attempts > r.policy.MaxRetries {
			// This invoke is out of device attempts: complete it on the
			// secondary so the run survives, and let the breaker decide
			// whether the device is worth trying again.
			r.consecutive++
			if r.consecutive >= r.policy.BreakerThreshold {
				r.trip()
			}
			return r.invokeSecondary(fill, waste, rows)
		}
		r.report.Retries++
		r.live.onRetry()
		wait := r.policy.backoff(attempts, r.jitter)
		waste.Host += wait
		r.report.BackoffTime += wait
		if r.pendingReload {
			if err := r.reload(&waste); err != nil {
				return waste, err
			}
		}
		if err := sleepCtx(ctx, wait); err != nil {
			return waste, err
		}
	}
}

// ForceReload re-pays the primary's model load outside the fault-recovery
// path — the integrity repair ladder's full-reload rung. It restores every
// device-resident parameter from the pristine compiled model and returns
// the simulated setup cost, accounted as reload overhead exactly like a
// fault-driven reload. Call it from the goroutine that drives the runner.
func (r *ResilientRunner) ForceReload() (time.Duration, error) {
	setup, err := r.primary.Reset()
	if err != nil {
		return 0, fmt.Errorf("pipeline: forced reload failed: %w", err)
	}
	r.pendingReload = false
	r.report.Reloads++
	r.live.onReload()
	r.report.ReloadTime += setup
	return setup, nil
}

// Quarantine opens the breaker permanently: every subsequent invoke serves
// from the secondary backend and no cooldown or half-open probe ever routes
// work back to the primary. The integrity layer calls this when the repair
// ladder is exhausted — the device answers, but its answers can no longer
// be trusted. Quarantine is one-way for the life of the runner.
func (r *ResilientRunner) Quarantine() {
	if r.quarantined {
		return
	}
	r.quarantined = true
	if r.breaker != BreakerOpen {
		r.trip()
	}
}

// Quarantined reports whether Quarantine was called.
func (r *ResilientRunner) Quarantined() bool { return r.quarantined }

// reload re-pays the primary's model load after a reset-class fault,
// accounting the setup cost as recovery overhead.
func (r *ResilientRunner) reload(waste *edgetpu.Timing) error {
	setup, err := r.primary.Reset()
	if err != nil {
		return fmt.Errorf("pipeline: model reload failed: %w", err)
	}
	r.pendingReload = false
	r.report.Reloads++
	r.live.onReload()
	waste.Host += setup
	r.report.ReloadTime += setup
	return nil
}

// trip opens the breaker and arms the cooldown.
func (r *ResilientRunner) trip() {
	r.breaker = BreakerOpen
	r.cooldownLeft = r.policy.BreakerCooldown
	r.report.BreakerTripped = true
	r.report.BreakerTrips++
	r.live.onBreaker(BreakerOpen)
}

// ctxErr returns the context's error, tolerating the batch path's nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// sleepCtx waits d of wall-clock time when a context is present, returning
// early with ctx.Err() on cancellation. The batch path (nil ctx) does not
// sleep: its backoff exists in simulated time only.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil || d <= 0 {
		return ctxErr(ctx)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// invokeSecondary completes one invoke on the secondary backend
// (classically the host CPU interpreter priced by the cpuarch model). The
// quantized graph is bit-exact with the healthy device, so degradation
// costs throughput, not accuracy.
func (r *ResilientRunner) invokeSecondary(fill func(in *tensor.Tensor), waste edgetpu.Timing, rows int) (edgetpu.Timing, error) {
	if r.secondary == nil {
		if r.makeSecondary == nil {
			return waste, fmt.Errorf("pipeline: no secondary backend to degrade to")
		}
		b, err := r.makeSecondary()
		if err != nil {
			return waste, fmt.Errorf("pipeline: host fallback unavailable: %w", err)
		}
		r.secondary = b
	}
	if fill != nil {
		fill(r.secondary.Input(0))
	}
	st, err := r.secondary.InvokeBatch(rows)
	if err != nil {
		return waste, fmt.Errorf("pipeline: host fallback invoke: %w", err)
	}
	r.lastWasFallback = true
	r.report.FallbackInvokes++
	r.live.onFallback()
	r.report.FallbackTime += st.Total()
	t := waste
	t.Add(st)
	return t, nil
}
