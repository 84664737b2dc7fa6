// Package online closes the serving loop with host-side learning: labelled
// feedback from completed requests streams through a bounded queue into a
// trainer goroutine that applies OnlineHD-style confidence-weighted
// updates to a private copy of each model, and periodically publishes the
// result as a freshly compiled, immutable snapshot through registry.Swap.
// Serving workers pick the new version up through the existing (ID,
// Version) bind-invalidation path, so inference never blocks on training:
// the only shared state between the two is the registry's lock-free
// catalog pointer and the feedback channel, and a full queue drops
// feedback rather than stalling the producer.
//
// A windowed drift detector (fast vs slow EWMA of feedback accuracy)
// watches for distribution shift; when recent accuracy falls well below
// the long-run baseline it triggers a DistHD-style recovery — regenerate
// the least-discriminative dimensions and refine on a replay buffer of
// recent feedback — published as the next snapshot. See docs/online.md.
package online

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hdcedge/internal/dataset"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// Feedback is one labelled outcome from the application: the features a
// request carried and the ground-truth label that later became known.
type Feedback struct {
	// Tenant is the submitting tenant (informational; per-tenant
	// attribution only).
	Tenant string
	// Model is the registry ID the request was served under. "" means the
	// trainer's default (first attached) model.
	Model string
	// Features is the raw feature vector. Offer copies it, so the caller
	// may reuse the backing slice immediately.
	Features []float32
	// Label is the ground-truth class.
	Label int
}

// Config tunes the feedback trainer. The zero value of each field selects
// the documented default; use New(nil) semantics — a nil *Config — to
// disable online learning entirely (every Trainer method on the resulting
// nil trainer is a safe no-op, keeping the serving path bit-identical).
type Config struct {
	// Queue bounds the feedback channel; a full queue drops (default 256).
	Queue int
	// LearningRate scales updates (1 when zero, as in hdc.OnlineConfig).
	LearningRate float32
	// Margin reinforces correct-but-weak predictions below it (0 off).
	Margin float32
	// SnapshotEvery publishes a snapshot after this many applied updates
	// (default 32). Publication also always follows a regeneration.
	SnapshotEvery int
	// DriftWindow is the nominal sample window of the drift detector's
	// fast EWMA, and its minimum observation count (default 64).
	DriftWindow int
	// DriftThreshold is the accuracy gap (slow − fast EWMA) that signals
	// drift (default 0.15).
	DriftThreshold float64
	// RegenFraction is the fraction of dimensions regenerated on drift
	// (default 0.2).
	RegenFraction float64
	// RegenEpochs is how many refinement epochs run over the replay
	// buffer after regeneration (default 2).
	RegenEpochs int
	// RegenCooldown is the minimum number of feedback samples between
	// regenerations of one model (default 2×DriftWindow).
	RegenCooldown int
	// Buffer is the per-model replay ring capacity backing refinement
	// (default 512). Regeneration waits until at least DriftWindow
	// samples are buffered.
	Buffer int
	// Batch is the compile batch capacity of published snapshots
	// (default 1). It must match what the serving fleet was compiled at.
	Batch int
	// Binarize also publishes the sign-quantized bit-packed form with
	// each snapshot, for fleets with binary-HDC workers.
	Binarize bool
	// Seed drives regeneration's re-drawn base hypervectors and the
	// refinement shuffle.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Queue == 0 {
		c.Queue = 256
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 32
	}
	if c.DriftWindow == 0 {
		c.DriftWindow = 64
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.15
	}
	if c.RegenFraction == 0 {
		c.RegenFraction = 0.2
	}
	if c.RegenEpochs == 0 {
		c.RegenEpochs = 2
	}
	if c.RegenCooldown == 0 {
		c.RegenCooldown = 2 * c.DriftWindow
	}
	if c.Buffer == 0 {
		c.Buffer = 512
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate rejects configurations the trainer cannot run.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Queue < 0:
		return fmt.Errorf("online: negative Queue %d", c.Queue)
	case c.LearningRate < 0:
		return fmt.Errorf("online: negative LearningRate %g", c.LearningRate)
	case c.Margin < 0 || c.Margin >= 1:
		return fmt.Errorf("online: Margin %g outside [0, 1)", c.Margin)
	case c.SnapshotEvery < 0:
		return fmt.Errorf("online: negative SnapshotEvery %d", c.SnapshotEvery)
	case c.DriftWindow < 2:
		return fmt.Errorf("online: DriftWindow %d below 2", c.DriftWindow)
	case c.DriftThreshold < 0 || c.DriftThreshold >= 1:
		return fmt.Errorf("online: DriftThreshold %g outside [0, 1)", c.DriftThreshold)
	case c.RegenFraction < 0 || c.RegenFraction > 1:
		return fmt.Errorf("online: RegenFraction %g outside [0, 1]", c.RegenFraction)
	case c.RegenEpochs < 1:
		return fmt.Errorf("online: RegenEpochs %d below 1", c.RegenEpochs)
	case c.RegenCooldown < 0:
		return fmt.Errorf("online: negative RegenCooldown %d", c.RegenCooldown)
	case c.Buffer < c.DriftWindow:
		return fmt.Errorf("online: Buffer %d below DriftWindow %d", c.Buffer, c.DriftWindow)
	case c.Batch < 1:
		return fmt.Errorf("online: Batch %d below 1", c.Batch)
	}
	return nil
}

// replayRing is a bounded chronological buffer of recent feedback, the
// refinement set for post-drift recovery.
type replayRing struct {
	feats  []float32 // cap × n, flat
	labels []int
	n      int // feature width
	next   int // write cursor
	full   bool
}

func newReplayRing(capacity, features int) *replayRing {
	return &replayRing{
		feats:  make([]float32, capacity*features),
		labels: make([]int, capacity),
		n:      features,
	}
}

func (r *replayRing) push(features []float32, label int) {
	copy(r.feats[r.next*r.n:(r.next+1)*r.n], features)
	r.labels[r.next] = label
	r.next++
	if r.next == len(r.labels) {
		r.next, r.full = 0, true
	}
}

func (r *replayRing) len() int {
	if r.full {
		return len(r.labels)
	}
	return r.next
}

// design copies the buffered samples, oldest first, into a design matrix
// and label slice for refinement.
func (r *replayRing) design() (*tensor.Tensor, []int) {
	m := r.len()
	x := tensor.New(tensor.Float32, m, r.n)
	y := make([]int, m)
	start := 0
	if r.full {
		start = r.next
	}
	for i := 0; i < m; i++ {
		src := (start + i) % len(r.labels)
		copy(x.Row(i), r.feats[src*r.n:(src+1)*r.n])
		y[i] = r.labels[src]
	}
	return x, y
}

// modelState is everything the trainer goroutine owns for one model. Only
// that goroutine touches it.
type modelState struct {
	id      string
	model   *hdc.Model // private working copy, never shared
	calib   *dataset.Dataset
	scratch *hdc.AdaptScratch
	ring    *replayRing
	det     *driftDetector
	r       *rng.RNG

	pending    int // applied updates since the last snapshot
	sinceRegen int // feedback samples since the last regeneration
	regenArmed bool
}

// Trainer consumes the feedback stream and publishes model snapshots. Use
// New to construct one; a nil *Trainer is valid and inert.
type Trainer struct {
	cfg Config
	p   pipeline.Platform
	g   *registry.Registry

	mu      sync.Mutex // guards states/defaultID before Start
	states  map[string]*modelState
	defID   string
	started bool

	ch    chan Feedback
	flush chan chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup

	accepted  atomic.Int64 // Offer successes
	processed atomic.Int64 // applied by the loop

	feedback   *metrics.Counter
	dropped    *metrics.Counter
	updates    *metrics.Counter
	mispred    *metrics.Counter
	snapshots  *metrics.Counter
	regens     *metrics.Counter
	pubErrs    *metrics.Counter
	driftScore *metrics.Gauge
	queueDepth *metrics.Gauge
}

// New builds a trainer publishing into g. A nil cfg returns a nil trainer
// — the "online learning off" configuration; every method on a nil
// trainer is a safe no-op, so callers thread the pointer through without
// branching and the serving path stays bit-identical to a build without
// this package. met receives the hdc_online_* telemetry (pass the serving
// registry so /snapshot and /metrics carry it); nil uses a private one.
func New(p pipeline.Platform, g *registry.Registry, cfg *Config, met *metrics.Registry) (*Trainer, error) {
	if cfg == nil {
		return nil, nil
	}
	if g == nil {
		return nil, fmt.Errorf("online: nil registry")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	if met == nil {
		met = metrics.NewRegistry()
	}
	t := &Trainer{
		cfg:    c,
		p:      p,
		g:      g,
		states: map[string]*modelState{},
		ch:     make(chan Feedback, c.Queue),
		flush:  make(chan chan struct{}),
		done:   make(chan struct{}),

		feedback:   met.Counter("hdc_online_feedback_total"),
		dropped:    met.Counter("hdc_online_feedback_dropped_total"),
		updates:    met.Counter("hdc_online_updates_total"),
		mispred:    met.Counter("hdc_online_mispredictions_total"),
		snapshots:  met.Counter("hdc_online_snapshots_total"),
		regens:     met.Counter("hdc_online_regens_total"),
		pubErrs:    met.Counter("hdc_online_publish_errors_total"),
		driftScore: met.Gauge("hdc_online_drift_score_e4"),
		queueDepth: met.Gauge("hdc_online_queue_depth"),
	}
	return t, nil
}

// Attach registers a model for online training: the trainer takes a
// private deep copy of model (the caller's copy is never touched again)
// and will publish snapshots under the registry ID id, compiling against
// calib. The first attached model is the default for Feedback with an
// empty Model. Attach must precede Start.
func (t *Trainer) Attach(id string, model *hdc.Model, calib *dataset.Dataset) error {
	if t == nil {
		return nil
	}
	if model == nil || calib == nil || calib.Samples() == 0 {
		return fmt.Errorf("online: attach %q needs a model and a non-empty calibration set", id)
	}
	if _, ok := t.g.Get(id); !ok {
		return fmt.Errorf("online: attach of unregistered model %q", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return fmt.Errorf("online: attach %q after Start", id)
	}
	if _, dup := t.states[id]; dup {
		return fmt.Errorf("online: model %q attached twice", id)
	}
	priv := model.Clone()
	t.states[id] = &modelState{
		id:      id,
		model:   priv,
		calib:   calib,
		scratch: priv.NewAdaptScratch(),
		ring:    newReplayRing(t.cfg.Buffer, model.Encoder.Features()),
		det:     newDriftDetector(t.cfg.DriftWindow, t.cfg.DriftThreshold),
		r:       rng.New(t.cfg.Seed + uint64(len(t.states))),
	}
	if t.defID == "" {
		t.defID = id
	}
	return nil
}

// Start launches the trainer goroutine. It requires at least one attached
// model.
func (t *Trainer) Start() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return fmt.Errorf("online: Start called twice")
	}
	if len(t.states) == 0 {
		return fmt.Errorf("online: Start with no attached models")
	}
	t.started = true
	t.wg.Add(1)
	go t.loop()
	return nil
}

// Offer enqueues one feedback sample without blocking: when the queue is
// full the sample is dropped (counted in hdc_online_feedback_dropped_total)
// and Offer reports false. Features are copied, so the caller may reuse
// the slice. Offer is safe from any goroutine, including serving Consume
// callbacks — it never takes a lock the invoke path could wait on.
func (t *Trainer) Offer(fb Feedback) bool {
	if t == nil {
		return false
	}
	fb.Features = append([]float32(nil), fb.Features...)
	select {
	case t.ch <- fb:
		t.accepted.Add(1)
		t.queueDepth.Set(int64(len(t.ch)))
		return true
	default:
		t.dropped.Inc()
		return false
	}
}

// Quiesce blocks until every accepted feedback sample has been applied
// (or the trainer closes). It exists so tests and experiment drivers can
// sequence assertions after a burst of Offers.
func (t *Trainer) Quiesce() {
	if t == nil {
		return
	}
	for t.processed.Load() < t.accepted.Load() {
		select {
		case <-t.done:
			return
		default:
			runtime.Gosched()
		}
	}
}

// Flush publishes any applied-but-unsnapshotted updates immediately,
// without waiting for the SnapshotEvery threshold, and blocks until the
// publication is done (or the trainer closes). Callers that want every
// accepted sample reflected first should Quiesce before flushing.
// Flushing an idle or unstarted trainer is a no-op.
func (t *Trainer) Flush() {
	if t == nil {
		return
	}
	t.mu.Lock()
	started := t.started
	t.mu.Unlock()
	if !started {
		return
	}
	ack := make(chan struct{})
	select {
	case t.flush <- ack:
		select {
		case <-ack:
		case <-t.done:
		}
	case <-t.done:
	}
}

// Close stops the trainer after draining the queued feedback and waits
// for the goroutine to exit. Safe to call more than once.
func (t *Trainer) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	started := t.started
	select {
	case <-t.done:
		t.mu.Unlock()
		return
	default:
	}
	close(t.done)
	t.mu.Unlock()
	if started {
		t.wg.Wait()
	}
}

// Stats is a point-in-time summary of the trainer's counters.
type Stats struct {
	Feedback       int64
	Dropped        int64
	Updates        int64
	Mispredictions int64
	Snapshots      int64
	Regens         int64
	PublishErrors  int64
	DriftScore     float64
}

// Stats reads the current counters. Safe from any goroutine.
func (t *Trainer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Feedback:       t.feedback.Value(),
		Dropped:        t.dropped.Value(),
		Updates:        t.updates.Value(),
		Mispredictions: t.mispred.Value(),
		Snapshots:      t.snapshots.Value(),
		Regens:         t.regens.Value(),
		PublishErrors:  t.pubErrs.Value(),
		DriftScore:     float64(t.driftScore.Value()) / 1e4,
	}
}

// loop is the trainer goroutine: apply feedback, watch for drift, publish
// snapshots. It drains the channel before honoring done, so Close after a
// burst of Offers still applies everything.
func (t *Trainer) loop() {
	defer t.wg.Done()
	for {
		select {
		case fb := <-t.ch:
			t.apply(fb)
		case ack := <-t.flush:
			t.flushAll()
			close(ack)
		case <-t.done:
			for {
				select {
				case fb := <-t.ch:
					t.apply(fb)
				default:
					t.flushAll()
					return
				}
			}
		}
	}
}

// apply folds one feedback sample into its model's private copy. While
// more feedback is queued it ends with a scheduler yield, for the same
// reason refinement yields per sample: draining a backlog must not hold a
// core for the runtime's full preemption quantum while serving workers
// wait. With the queue empty the next receive parks the goroutine anyway;
// a yield there only wakes an idle P to spin, and on a 2-core host that
// churn delayed the serving workers' pace timers.
func (t *Trainer) apply(fb Feedback) {
	defer func() {
		t.processed.Add(1)
		n := len(t.ch)
		t.queueDepth.Set(int64(n))
		if n > 0 {
			runtime.Gosched()
		}
	}()
	t.feedback.Inc()
	id := fb.Model
	if id == "" {
		id = t.defID
	}
	st := t.states[id]
	if st == nil || len(fb.Features) != st.model.Encoder.Features() ||
		fb.Label < 0 || fb.Label >= st.model.K() {
		t.dropped.Inc()
		return
	}
	pred, updated := st.model.AdaptOnline(st.scratch, fb.Features, fb.Label, hdc.OnlineConfig{
		LearningRate: t.cfg.LearningRate,
		Margin:       t.cfg.Margin,
	})
	if updated {
		t.updates.Inc()
		st.pending++
	}
	correct := pred == fb.Label
	if !correct {
		t.mispred.Inc()
	}
	st.ring.push(fb.Features, fb.Label)
	st.sinceRegen++

	drifted := st.det.observe(correct)
	if id == t.defID {
		t.driftScore.Set(int64(st.det.score() * 1e4))
	}
	if drifted && !st.regenArmed {
		st.regenArmed = true
	}
	if st.regenArmed && st.sinceRegen >= t.cfg.RegenCooldown && st.ring.len() >= t.cfg.DriftWindow {
		t.regenerate(st)
		return
	}
	if st.pending >= t.cfg.SnapshotEvery {
		t.publish(st)
	}
}

// regenerate runs the DistHD-style recovery on one model: re-draw the
// weakest dimensions, refine on the replay buffer, publish the result.
//
// Refinement runs sample-by-sample with a scheduler yield between
// samples rather than through the monolithic RegenerateAndRefine: on
// small hosts the trainer time-shares cores with the serving workers,
// and a refine pass that holds a core for its full length would park
// in-flight requests for the runtime's whole preemption quantum — a
// stall that surfaces directly in the serving tail. Yielding caps the
// worst-case worker wait at one sample's encode.
//
// The goroutine holds its OS thread for the whole regeneration, so each
// yield parks the thread and hands both the P and the core to the serving
// workers. An unlocked yield keeps the thread running and lets the
// trainer hop to the P whose timer heap holds the workers' pace timers;
// on a 2-core host that delayed those timers by several milliseconds
// through every regeneration, and the drift ablation's online p99 read
// 1.2-1.5x the frozen cell's in nearly every solo run.
func (t *Trainer) regenerate(st *modelState) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if _, err := st.model.Regenerate(t.cfg.RegenFraction, st.r.Split()); err != nil {
		t.pubErrs.Inc()
		return
	}
	x, y := st.ring.design()
	lr := t.cfg.LearningRate
	if lr == 0 {
		lr = 1
	}
	shuffle := st.r.Split()
	for e := 0; e < t.cfg.RegenEpochs; e++ {
		for _, i := range shuffle.Perm(len(y)) {
			st.model.AdaptWith(st.scratch, x.Row(i), y[i], lr)
			runtime.Gosched()
		}
	}
	t.regens.Inc()
	st.det.reset()
	st.regenArmed = false
	st.sinceRegen = 0
	t.publish(st)
}

// publish compiles the current private model and hot-swaps it into the
// registry. The compile runs on a fresh clone, so the published snapshot
// shares no storage with the copy the trainer keeps mutating — workers
// binding the new version read immutable state.
func (t *Trainer) publish(st *modelState) {
	st.pending = 0
	snap := st.model.Clone()
	cm, err := pipeline.CompileInference(t.p, snap, st.calib, t.cfg.Batch)
	if err != nil {
		t.pubErrs.Inc()
		return
	}
	var bip *hdc.BipolarModel
	if t.cfg.Binarize {
		bip = snap.Binarize()
	}
	if _, err := t.g.Swap(st.id, cm, bip); err != nil {
		t.pubErrs.Inc()
		return
	}
	t.snapshots.Inc()
}

// flushAll publishes any unpublished updates on shutdown so accepted
// feedback is never silently lost between snapshots.
func (t *Trainer) flushAll() {
	for _, id := range sortedIDs(t.states) {
		if st := t.states[id]; st.pending > 0 {
			t.publish(st)
		}
	}
}

func sortedIDs(m map[string]*modelState) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}
