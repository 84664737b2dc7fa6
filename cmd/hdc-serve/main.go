// Command hdc-serve runs the request-level serving runtime against a
// simulated fleet — four Edge TPUs by default, or a heterogeneous mix of
// backend classes via -fleet — and reports what happened under load.
//
// Usage:
//
//	hdc-serve [-data test.bin] [-fleet "tpu=2,bin=2"]
//	          [-queue 8] [-deadline 250ms]
//	          [-drain 2s] [-requests 400] [-load 2.0] [-pace 4ms]
//	          [-batch 1] [-window 0] [-pace-scale 0]
//	          [-models "main;wide=d1024"] [-mem-budget 0] [-mem-policy lru]
//	          [-tenants "prod=w4,p1,q64,d50ms;batch=w1"]
//	          [-faults "link=0.05"] [-fault-seed 1] [-seed 7]
//	          [-scrub-interval 0] [-canary 0] [-canary-interval 25ms]
//	          [-online "lr=0.5,window=64"] [-feedback-rate 1]
//	          [-listen :8080]
//	          [-nodes 4] [-chaos "0:crash,1:slow=8"] [-hedge adaptive]
//	          [-probe 25ms]
//
// Without -data, a synthetic dataset is generated and a tiny model is
// trained on it. Requests arrive open-loop at -load times the fleet's
// service capacity; each classifies one dataset row through the bounded
// admission queue. With -batch > 1 the model compiles at that batch
// capacity and workers coalesce up to -batch queued requests into one
// device invoke, holding an underfull batch open for up to -window.
// With -fleet, the pool mixes backend classes — "tpu" (simulated Edge TPU),
// "cpu" (host int8 interpreter), and "bin" (the bit-packed binary-HDC
// engine serving the sign-quantized model; see docs/backends.md) — and
// fault plans apply to the accelerator workers only. With -listen, the live
// observability endpoints (/metrics, /snapshot, /traces, /debug/pprof)
// serve on that address for the duration of the run. The run ends with a
// graceful drain and the serving report: admission/shed/deadline counters,
// latency quantiles, batch occupancy, per-backend throughput/latency
// breakdowns, per-worker breaker health. See docs/serving.md and
// docs/observability.md.
//
// With -scrub-interval > 0 each worker periodically verifies its
// device-resident parameters against golden checksums; with -canary N,
// N held-out rows run as known-answer checks every -canary-interval.
// Either detector firing walks the self-healing repair ladder (segment
// re-upload → model reload → device reset → quarantine); the report gains
// the integrity accounting and any repair events. See docs/integrity.md.
//
// With -models, the run is multi-model: one classifier is trained and
// compiled per ';'-separated spec entry (at its own d<dim> when given, the
// -dim default otherwise), all registered in a model registry; requests
// round-robin across the models, each worker's on-chip parameter memory is
// simulated against -mem-budget bytes (0 = the device's own 8 MiB), and a
// request whose model is not resident pays its deterministic re-setup under
// the -mem-policy eviction discipline ("lru" or "pin" — pin-first-touch,
// the static baseline). With -tenants, admission is multi-tenant: requests
// round-robin across the configured tenants and dispatch follows strict
// priority plus weighted-fair queuing with per-tenant quotas and deadlines.
// The report gains per-tenant, per-model, and per-device-memory sections.
// See docs/multitenant.md.
//
// With -online, a feedback trainer runs beside the server: a -feedback-rate
// sampled fraction of completed requests report their ground-truth label
// back through a bounded non-blocking queue, the trainer applies
// confidence-weighted updates to a private model copy, and publishes
// versioned snapshots through the registry for workers to hot-bind. A
// drift detector (tuned by the spec's window= and threshold= keys) triggers
// dimension regeneration on sustained accuracy collapse.
// The run report gains the trainer's accounting, and /snapshot carries the
// hdc_online_* series. See docs/online.md.
//
// With -nodes > 1 (or -chaos / -hedge), the run goes through the routing
// tier instead: -nodes identical servers behind a health-checked
// least-loaded router with failover, optional hedged requests (-hedge),
// and node-grade chaos injection (-chaos, seeded by -fault-seed). The
// report becomes the router's fleet-level accounting plus per-node
// serving summaries. See docs/fleet.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"hdcedge/internal/backend/binhd"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/integrity"
	"hdcedge/internal/metrics"
	"hdcedge/internal/online"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
	"hdcedge/internal/rng"
	"hdcedge/internal/router"
	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// flagError is a CLI validation failure tied to one flag, so tests (and
// error messages) can pin down exactly which input was rejected.
type flagError struct {
	flag   string // flag name without the leading dash
	reason string
}

func (e *flagError) Error() string { return "-" + e.flag + ": " + e.reason }

// options is every CLI input, collected so validation is testable apart
// from flag.Parse and os.Exit.
type options struct {
	data      string
	fleetSpec string
	queue     int
	deadline  time.Duration
	drain     time.Duration
	requests  int
	load      float64
	pace      time.Duration
	batch     int
	window    time.Duration
	paceScale float64
	faults    string
	faultSeed uint64
	seed      uint64
	dim       int
	epochs    int
	listen    string
	nodes     int
	chaosSpec string
	hedgeSpec string
	probe     time.Duration

	modelSpec  string
	tenantSpec string
	memBudget  int
	memPolicy  string

	scrubInterval  time.Duration
	canaryCount    int
	canaryInterval time.Duration

	onlineSpec   string
	feedbackRate float64

	// Parsed by validate.
	fleet   serve.FleetSpec // parsed -fleet
	plan    edgetpu.FaultPlan
	chaos   map[int]router.ChaosPlan
	hedge   router.HedgeConfig
	models  []serve.ModelSpec
	tenants []serve.TenantSpec
	policy  registry.EvictPolicy
	online  *online.Config

	// Built in main when -models is set: one trained+compiled classifier
	// per spec entry, behind its registry ID.
	registry *registry.Registry

	// Built in main once the model is compiled (canaries need golden
	// answers recorded through the real graph).
	integrity *integrity.Policy

	// Built in main when the fleet has bin-class workers: the trained
	// model's sign-quantized deployment form.
	bipolar *hdc.BipolarModel

	// Built in main when -online is set: the shared telemetry registry
	// (serving and trainer metrics on one /snapshot surface) and the
	// trained models the feedback trainer adapts.
	metrics *metrics.Registry
	trained []trainedModel
}

// trainedModel pairs a registry ID with its host-side trained model, kept
// (only when -online is set) so the feedback trainer can adapt a private
// copy of what was compiled and registered.
type trainedModel struct {
	name  string
	model *hdc.Model
}

// routed reports whether the run goes through the routing tier rather
// than a single bare server.
func (o *options) routed() bool {
	return o.nodes > 1 || o.chaosSpec != "" || o.hedgeSpec != ""
}

// validate checks every option and parses the structured ones (-fleet,
// -faults). Each failure is a *flagError naming the offending flag.
func (o *options) validate() error {
	if o.requests <= 0 {
		return &flagError{"requests", fmt.Sprintf("must be positive, got %d", o.requests)}
	}
	if o.load <= 0 {
		return &flagError{"load", fmt.Sprintf("must be positive, got %g", o.load)}
	}
	if o.queue < 0 {
		return &flagError{"queue", fmt.Sprintf("must be non-negative (0 = unbounded), got %d", o.queue)}
	}
	if o.deadline < 0 {
		return &flagError{"deadline", fmt.Sprintf("must be non-negative, got %v", o.deadline)}
	}
	if o.drain < 0 {
		return &flagError{"drain", fmt.Sprintf("must be non-negative, got %v", o.drain)}
	}
	if o.pace < 0 {
		return &flagError{"pace", fmt.Sprintf("must be non-negative, got %v", o.pace)}
	}
	if o.paceScale < 0 {
		return &flagError{"pace-scale", fmt.Sprintf("must be non-negative, got %g", o.paceScale)}
	}
	if o.batch < 1 {
		return &flagError{"batch", fmt.Sprintf("must be at least 1, got %d", o.batch)}
	}
	if o.window < 0 {
		return &flagError{"window", fmt.Sprintf("must be non-negative, got %v", o.window)}
	}
	if o.window > 0 && o.batch < 2 {
		return &flagError{"window", fmt.Sprintf("needs -batch > 1 to hold a batch open, got -batch %d", o.batch)}
	}
	if o.dim <= 0 {
		return &flagError{"dim", fmt.Sprintf("must be positive, got %d", o.dim)}
	}
	if o.epochs <= 0 {
		return &flagError{"epochs", fmt.Sprintf("must be positive, got %d", o.epochs)}
	}
	if o.nodes <= 0 {
		return &flagError{"nodes", fmt.Sprintf("must be positive, got %d", o.nodes)}
	}
	if o.probe < 0 {
		return &flagError{"probe", fmt.Sprintf("must be non-negative (0 = no probing), got %v", o.probe)}
	}
	if o.scrubInterval < 0 {
		return &flagError{"scrub-interval", fmt.Sprintf("must be non-negative (0 = no scrubbing), got %v", o.scrubInterval)}
	}
	if o.canaryCount < 0 {
		return &flagError{"canary", fmt.Sprintf("must be non-negative (0 = no canaries), got %d", o.canaryCount)}
	}
	if o.canaryInterval <= 0 && o.canaryCount > 0 {
		return &flagError{"canary-interval", fmt.Sprintf("must be positive with -canary %d, got %v", o.canaryCount, o.canaryInterval)}
	}
	if o.listen != "" && o.routed() {
		return &flagError{"listen", "the observability endpoint is single-node; not available behind the router"}
	}
	fleet, err := serve.ParseFleet(o.fleetSpec)
	if err != nil {
		return &flagError{"fleet", err.Error()}
	}
	o.fleet = fleet
	if o.faults != "" {
		plan, err := edgetpu.ParseFaultPlan(o.faults, o.faultSeed)
		if err != nil {
			return &flagError{"faults", err.Error()}
		}
		o.plan = plan
	}
	if o.chaosSpec != "" {
		plans, err := router.ParseChaos(o.chaosSpec, o.faultSeed)
		if err != nil {
			return &flagError{"chaos", err.Error()}
		}
		for idx := range plans {
			if idx >= o.nodes {
				return &flagError{"chaos", fmt.Sprintf("plan targets node %d but -nodes is %d", idx, o.nodes)}
			}
		}
		o.chaos = plans
	}
	switch o.hedgeSpec {
	case "":
	case "adaptive":
		o.hedge = router.HedgeConfig{Enabled: true}
	default:
		d, err := time.ParseDuration(o.hedgeSpec)
		if err != nil || d <= 0 {
			return &flagError{"hedge", fmt.Sprintf("want \"adaptive\" or a positive duration, got %q", o.hedgeSpec)}
		}
		o.hedge = router.HedgeConfig{Enabled: true, Delay: d}
	}
	if o.modelSpec != "" {
		models, err := serve.ParseModels(o.modelSpec)
		if err != nil {
			return &flagError{"models", err.Error()}
		}
		o.models = models
	}
	if o.tenantSpec != "" {
		tenants, err := serve.ParseTenants(o.tenantSpec)
		if err != nil {
			return &flagError{"tenants", err.Error()}
		}
		o.tenants = tenants
	}
	if o.memBudget < 0 {
		return &flagError{"mem-budget", fmt.Sprintf("must be non-negative (0 = device default), got %d", o.memBudget)}
	}
	switch o.memPolicy {
	case "", "lru":
		o.policy = registry.EvictLRU
	case "pin":
		o.policy = registry.PinFirst
	default:
		return &flagError{"mem-policy", fmt.Sprintf("want \"lru\" or \"pin\", got %q", o.memPolicy)}
	}
	if len(o.models) == 0 {
		if o.memBudget > 0 {
			return &flagError{"mem-budget", "device-memory simulation needs -models"}
		}
		if o.memPolicy != "" {
			return &flagError{"mem-policy", "device-memory simulation needs -models"}
		}
	}
	if o.feedbackRate < 0 || o.feedbackRate > 1 {
		return &flagError{"feedback-rate", fmt.Sprintf("must be in [0, 1], got %g", o.feedbackRate)}
	}
	if o.onlineSpec == "" {
		if o.feedbackRate != 0 && o.feedbackRate != 1 {
			return &flagError{"feedback-rate", "feedback sampling needs -online"}
		}
		return nil
	}
	if o.routed() {
		return &flagError{"online", "online learning is single-node; not available behind the router"}
	}
	cfg, err := online.ParseSpec(o.onlineSpec)
	if err != nil {
		return &flagError{"online", err.Error()}
	}
	// Published snapshots must compile at the batch capacity the fleet
	// serves at, or workers would bind a model they cannot batch into.
	if cfg.Batch != 0 && cfg.Batch != o.batch {
		return &flagError{"online", fmt.Sprintf("spec batch=%d conflicts with -batch %d", cfg.Batch, o.batch)}
	}
	cfg.Batch = o.batch
	if err := cfg.Validate(); err != nil {
		return &flagError{"online", err.Error()}
	}
	o.online = cfg
	return nil
}

// config assembles the serving Config from validated options.
func (o *options) config() serve.Config {
	return serve.Config{
		Fleet:           o.fleet,
		QueueCapacity:   o.queue,
		DefaultDeadline: o.deadline,
		DrainDeadline:   o.drain,
		Plan:            o.plan,
		PacePerInvoke:   o.pace,
		PaceScale:       o.paceScale,
		MaxBatch:        o.batch,
		BatchWindow:     o.window,
		Integrity:       o.integrity,
		Bipolar:         o.bipolar,
		Registry:        o.registry,
		MemBudget:       o.memBudget,
		MemPolicy:       o.policy,
		Tenants:         o.tenants,
		Metrics:         o.metrics,
	}
}

// annotate round-robins request i across the configured tenants and models,
// so every tenant offers an equal share of the load and every model stays
// warm in the registry.
func (o *options) annotate(i int) serve.Request {
	var req serve.Request
	if len(o.tenants) > 0 {
		req.Tenant = o.tenants[i%len(o.tenants)].Name
	}
	if len(o.models) > 0 {
		req.Model = o.models[i%len(o.models)].Name
	}
	return req
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("hdc-serve", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.data, "data", "", "dataset to serve (synthetic when empty)")
	fs.StringVar(&o.fleetSpec, "fleet", "tpu=4", "worker fleet by backend class, e.g. \"tpu=2,cpu=2\"")
	fs.IntVar(&o.queue, "queue", 8, "admission queue capacity (0 = unbounded)")
	fs.DurationVar(&o.deadline, "deadline", 250*time.Millisecond, "default per-request deadline (0 = none)")
	fs.DurationVar(&o.drain, "drain", 2*time.Second, "graceful-drain deadline (0 = wait forever)")
	fs.IntVar(&o.requests, "requests", 400, "requests to offer")
	fs.Float64Var(&o.load, "load", 2.0, "offered load as a multiple of fleet capacity")
	fs.DurationVar(&o.pace, "pace", 4*time.Millisecond, "emulated per-invoke device occupancy")
	fs.IntVar(&o.batch, "batch", 1, "max requests coalesced into one device invoke")
	fs.DurationVar(&o.window, "window", 0, "how long to hold an underfull batch open")
	fs.Float64Var(&o.paceScale, "pace-scale", 0, "extra occupancy per invoke as a multiple of its simulated cost")
	fs.StringVar(&o.faults, "faults", "", "fault plan for every device, e.g. \"link=0.05\"")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "seed for the fault-injection streams")
	fs.Uint64Var(&o.seed, "seed", 7, "training / synthetic-data seed")
	fs.IntVar(&o.dim, "dim", 512, "hypervector dimension for the trained model")
	fs.IntVar(&o.epochs, "epochs", 3, "training epochs")
	fs.StringVar(&o.listen, "listen", "", "HTTP observability address, e.g. \":8080\" (empty = disabled)")
	fs.IntVar(&o.nodes, "nodes", 1, "serving nodes behind the routing tier (1 = no router)")
	fs.StringVar(&o.chaosSpec, "chaos", "", "node-grade chaos plans, e.g. \"0:crash,1:slow=8\"")
	fs.StringVar(&o.hedgeSpec, "hedge", "", "hedged requests: \"adaptive\" (p99-tracking delay) or a fixed delay like \"12ms\"")
	fs.DurationVar(&o.probe, "probe", 25*time.Millisecond, "router health-probe interval (0 = no probing)")
	fs.StringVar(&o.modelSpec, "models", "", "multi-model registry, e.g. \"main;wide=d1024\" (one trained model per entry)")
	fs.StringVar(&o.tenantSpec, "tenants", "", "multi-tenant admission, e.g. \"prod=w4,p1,q64,d50ms;batch=w1\"")
	fs.IntVar(&o.memBudget, "mem-budget", 0, "per-device on-chip parameter-memory budget in bytes (0 = device default; needs -models)")
	fs.StringVar(&o.memPolicy, "mem-policy", "", "eviction policy under memory pressure: \"lru\" (default) or \"pin\" (pin-first-touch baseline)")
	fs.DurationVar(&o.scrubInterval, "scrub-interval", 0, "device-parameter scrub interval (0 = no scrubbing)")
	fs.IntVar(&o.canaryCount, "canary", 0, "known-answer canary rows per worker (0 = no canaries)")
	fs.DurationVar(&o.canaryInterval, "canary-interval", 25*time.Millisecond, "canary check interval (needs -canary > 0)")
	fs.StringVar(&o.onlineSpec, "online", "", "online learning: \"on\" for defaults or \"lr=0.5,window=64,...\" (see docs/online.md)")
	fs.Float64Var(&o.feedbackRate, "feedback-rate", 1, "fraction of completed requests reporting ground-truth feedback (needs -online)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fail(err.Error())
	}
	ds, err := loadDataset(o.data, o.seed)
	if err != nil {
		fail(err.Error())
	}
	hasBin := slices.Contains(o.fleet, binhd.Name)
	p := pipeline.EdgeTPU()
	var cm *edgetpu.CompiledModel
	if len(o.models) > 0 {
		// One classifier per spec entry, each at its own dimension and a
		// distinct training seed, registered behind its name. The first
		// entry is the default model; integrity canaries answer against it.
		o.registry = registry.New()
		for i, ms := range o.models {
			dim := ms.Dim
			if dim == 0 {
				dim = o.dim
			}
			m, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
				Dim: dim, Epochs: o.epochs, LearningRate: 1, Nonlinear: true, Seed: o.seed + uint64(i),
			})
			if err != nil {
				fail(err.Error())
			}
			cmi, err := pipeline.CompileInference(p, m, ds, o.batch)
			if err != nil {
				fail(err.Error())
			}
			var bip *hdc.BipolarModel
			if hasBin {
				bip = m.Binarize()
			}
			if _, err := o.registry.Register(ms.Name, cmi, bip); err != nil {
				fail(err.Error())
			}
			if o.online != nil {
				o.trained = append(o.trained, trainedModel{ms.Name, m})
			}
			if cm == nil {
				cm = cmi
			}
		}
	} else {
		model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
			Dim: o.dim, Epochs: o.epochs, LearningRate: 1, Nonlinear: true, Seed: o.seed,
		})
		if err != nil {
			fail(err.Error())
		}
		if cm, err = pipeline.CompileInference(p, model, ds, o.batch); err != nil {
			fail(err.Error())
		}
		if hasBin {
			o.bipolar = model.Binarize()
		}
		if o.online != nil {
			// Online learning publishes through registry.Swap, so the
			// single-model run gets a one-entry registry for the trainer
			// to publish into; workers pick versions up through the same
			// bind path the multi-model server uses.
			o.registry = registry.New()
			if _, err := o.registry.Register("main", cm, o.bipolar); err != nil {
				fail(err.Error())
			}
			o.trained = append(o.trained, trainedModel{"main", model})
		}
	}
	if o.integrity, err = buildIntegrity(o, cm, ds); err != nil {
		fail(err.Error())
	}
	if o.routed() {
		runRouted(o, p, cm, ds)
		return
	}
	var tr *online.Trainer
	if o.online != nil {
		// One metrics registry for serving and training telemetry, so
		// /metrics and /snapshot carry the hdc_online_* series too.
		o.metrics = metrics.NewRegistry()
		if hasBin && !o.online.Binarize {
			// bin-class workers serve the sign-quantized form; every
			// published snapshot must carry it or a bin worker binding the
			// new version would have nothing to run.
			o.online.Binarize = true
		}
		if tr, err = online.New(p, o.registry, o.online, o.metrics); err != nil {
			fail(err.Error())
		}
		for _, tm := range o.trained {
			if err := tr.Attach(tm.name, tm.model, ds); err != nil {
				fail(err.Error())
			}
		}
		if err := tr.Start(); err != nil {
			fail(err.Error())
		}
	}
	s, err := serve.New(p, cm, o.config())
	if err != nil {
		fail(err.Error())
	}

	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			fail(fmt.Sprintf("-listen: %v", err))
		}
		defer ln.Close()
		fmt.Printf("observability: http://%s/{metrics,snapshot,traces,debug/pprof}\n", ln.Addr())
		go func() { _ = http.Serve(ln, s.Handler()) }()
	}

	workers := len(o.fleet)
	interarrival := time.Duration(float64(o.pace) / (float64(workers) * o.load))
	fmt.Printf("serving %d requests at %.1fx capacity (%d workers [%s], pace %v, interarrival %v)\n",
		o.requests, o.load, workers, o.fleet, o.pace, interarrival)
	n := ds.Features()
	fbRng := rng.New(o.seed + 1013)
	reqs := make([]serve.Request, o.requests)
	for i := range reqs {
		row := i % ds.Samples()
		features := ds.X.F32[row*n : (row+1)*n]
		req := o.annotate(i)
		req.Fill = func(in *tensor.Tensor) { copy(in.F32, features) }
		if tr != nil && fbRng.Float64() < o.feedbackRate {
			// This request reports its ground truth once served — the
			// -feedback-rate sampled application feedback loop. Offer
			// never blocks the serving path; a full queue drops.
			label := ds.Y[row]
			model := req.Model
			req.Consume = func(*tensor.Tensor) {
				tr.Offer(online.Feedback{Model: model, Features: features, Label: label})
			}
		}
		reqs[i] = req
	}
	elapsed := serve.OpenLoop(o.requests, serve.Staggered(1, 0, interarrival), func(i int) {
		// Sheds and deadline misses are expected under overload; the
		// final report accounts for every outcome.
		s.Submit(context.Background(), reqs[i])
	})

	if err := s.Drain(context.Background()); err != nil {
		fmt.Printf("drain: %v\n", err)
	} else {
		fmt.Println("drain: clean")
	}
	if tr != nil {
		tr.Close() // drains queued feedback and flushes pending snapshots
		st := tr.Stats()
		fmt.Printf("online: %d feedback (%d dropped), %d updates (%d mispredicted), %d snapshots, %d regens, drift score %+.3f\n",
			st.Feedback, st.Dropped, st.Updates, st.Mispredictions, st.Snapshots, st.Regens, st.DriftScore)
		if st.PublishErrors > 0 {
			fmt.Printf("online: %d publish errors\n", st.PublishErrors)
		}
	}
	rep := s.Report()
	fmt.Println(rep)
	fmt.Printf("goodput: %.0f req/s over %v (mean batch occupancy %.2f)\n",
		float64(rep.Completed)/elapsed.Seconds(), elapsed.Round(time.Millisecond),
		rep.MeanOccupancy())
	for _, b := range rep.Backends {
		fmt.Printf("  %s: %.0f req/s across %d worker(s), e2e p50=%s p99=%s\n",
			b.Name, float64(b.Requests)/elapsed.Seconds(), b.Workers,
			b.Latency.Quantile(0.5).Round(time.Microsecond),
			b.Latency.Quantile(0.99).Round(time.Microsecond))
	}
	for _, t := range rep.Tenants {
		fmt.Printf("  tenant %s: %.0f req/s goodput, e2e p50=%s p99=%s\n",
			t.Name, float64(t.Completed)/elapsed.Seconds(),
			t.Latency.Quantile(0.5).Round(time.Microsecond),
			t.Latency.Quantile(0.99).Round(time.Microsecond))
	}
	if evs := s.RegistryEvents(); len(evs) > 0 {
		hits, misses := 0, 0
		for _, e := range evs {
			switch e.Kind {
			case registry.EvHit:
				hits++
			case registry.EvMiss:
				misses++
			}
		}
		fmt.Printf("  parameter memory: %d hits, %d misses over the retained event window\n", hits, misses)
	}
	if evs := s.IntegrityEvents(); len(evs) > 0 {
		fmt.Println("integrity events:")
		for _, e := range evs {
			fmt.Printf("  %s\n", e)
		}
	}
}

// buildIntegrity assembles the integrity policy from the validated flags,
// recording each canary row's golden answer through the compiled graph.
// Returns nil when neither detector is requested, so the server stays
// bit-identical to an integrity-free build.
func buildIntegrity(o *options, cm *edgetpu.CompiledModel, ds *dataset.Dataset) (*integrity.Policy, error) {
	if o.scrubInterval == 0 && o.canaryCount == 0 {
		return nil, nil
	}
	pol := &integrity.Policy{ScrubInterval: o.scrubInterval}
	if o.canaryCount > 0 {
		n := ds.Features()
		limit := 4 * o.canaryCount
		if limit > ds.Samples() {
			limit = ds.Samples()
		}
		rows := make([][]float32, limit)
		for i := range rows {
			rows[i] = ds.X.F32[i*n : (i+1)*n]
		}
		all, err := integrity.BuildCanaries(cm.Model, rows)
		if err != nil {
			return nil, fmt.Errorf("-canary: %v", err)
		}
		// Prefer confidently-classified rows: a positive recorded margin
		// makes collapse detectable, not just outright label flips.
		for _, c := range all {
			if c.Margin > 0 && len(pol.Canaries) < o.canaryCount {
				pol.Canaries = append(pol.Canaries, c)
			}
		}
		for _, c := range all {
			if c.Margin <= 0 && len(pol.Canaries) < o.canaryCount {
				pol.Canaries = append(pol.Canaries, c)
			}
		}
		pol.CanaryInterval = o.canaryInterval
	}
	return pol, nil
}

// runRouted serves the request stream through the routing tier: -nodes
// identical servers (each configured like the single-node run), chaos
// plans wrapped around their targets, health probes and optional hedging
// on top. The report is the router's fleet-level accounting plus each
// node's own serving report.
func runRouted(o *options, p pipeline.Platform, cm *edgetpu.CompiledModel, ds *dataset.Dataset) {
	n := ds.Features()
	rowFill := func(row int) func(in *tensor.Tensor) {
		return func(in *tensor.Tensor) {
			copy(in.F32, ds.X.F32[row*n:(row+1)*n])
		}
	}
	nodes := make([]serve.Node, o.nodes)
	for i := range nodes {
		cfg := o.config()
		// Decorrelate the per-node retry-jitter streams so synchronized
		// failures don't retry in lockstep across the fleet.
		cfg.Policy = pipeline.DefaultRecoveryPolicy()
		cfg.Policy.Seed = o.seed + 1 + uint64(i)*17
		s, err := serve.New(p, cm, cfg)
		if err != nil {
			fail(err.Error())
		}
		if plan, ok := o.chaos[i]; ok {
			cn, err := router.NewChaosNode(s, i, plan)
			if err != nil {
				fail(err.Error())
			}
			nodes[i] = cn
		} else {
			nodes[i] = s
		}
	}
	r, err := router.New(nodes, router.Config{
		ProbeInterval:   o.probe,
		DegradedLatency: 4 * o.pace,
		ProbeFill:       rowFill(0),
		Hedge:           o.hedge,
	})
	if err != nil {
		fail(err.Error())
	}

	workers := o.nodes * len(o.fleet)
	interarrival := time.Duration(float64(o.pace) / (float64(workers) * o.load))
	hedgeStr := "off"
	if o.hedge.Enabled {
		hedgeStr = "adaptive"
		if o.hedge.Delay > 0 {
			hedgeStr = o.hedge.Delay.String()
		}
	}
	fmt.Printf("serving %d requests at %.1fx capacity (%d nodes x %d workers, pace %v, interarrival %v, chaos %q, hedge %s)\n",
		o.requests, o.load, o.nodes, len(o.fleet), o.pace, interarrival, o.chaosSpec, hedgeStr)
	elapsed := serve.OpenLoop(o.requests, serve.Staggered(1, 0, interarrival), func(i int) {
		req := o.annotate(i)
		req.Fill = rowFill(i % ds.Samples())
		// Sheds, deadline misses, and chaos-induced failures are all
		// tolerated outcomes; the router report accounts for each.
		r.Submit(context.Background(), req)
	})

	if err := r.Drain(context.Background()); err != nil {
		fmt.Printf("drain: %v\n", err)
	} else {
		fmt.Println("drain: clean")
	}
	rep := r.Report()
	fmt.Println(rep)
	fmt.Printf("goodput: %.0f req/s over %v\n",
		float64(rep.Completed)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	for i := range nodes {
		srep, ok := r.NodeServeReport(i)
		if !ok {
			continue
		}
		chaosStr := ""
		if plan, ok := o.chaos[i]; ok {
			chaosStr = fmt.Sprintf(" chaos=%s", plan.Mode)
		}
		fmt.Printf("  node %d [%s%s]: completed=%d shed=%d failed=%d\n",
			i, rep.Nodes[i].State, chaosStr, srep.Completed, srep.Shed(), srep.Failed)
	}
}

func loadDataset(path string, seed uint64) (*dataset.Dataset, error) {
	switch {
	case path == "":
		return dataset.Generate(dataset.SyntheticSpec(32, 256, 4, seed), 0)
	case len(path) > 4 && path[len(path)-4:] == ".csv":
		return dataset.LoadCSV(path, 0)
	default:
		return dataset.LoadBinary(path)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "hdc-serve:", msg)
	os.Exit(2)
}
