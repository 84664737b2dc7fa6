package main

import (
	"errors"
	"testing"
	"time"

	"hdcedge/internal/integrity"
	"hdcedge/internal/registry"
	"hdcedge/internal/router"
)

// validOptions returns a baseline that passes validation; tests perturb one
// field at a time.
func validOptions() *options {
	return &options{
		devices:  4,
		queue:    8,
		deadline: 250 * time.Millisecond,
		drain:    2 * time.Second,
		requests: 400,
		load:     2.0,
		pace:     4 * time.Millisecond,
		batch:    1,
		dim:      512,
		epochs:   3,
		nodes:    1,
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	o := validOptions()
	if err := o.validate(); err != nil {
		t.Fatalf("baseline options rejected: %v", err)
	}
	// Without -fleet, -devices N is shorthand for N TPU workers.
	if got := o.config().Fleet.String(); got != "tpu=4" {
		t.Fatalf("-devices 4 config fleet %q, want tpu=4", got)
	}
}

// TestValidateRejections drives every flag-level rejection and pins the
// typed error to the offending flag name.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(o *options)
		wantArg string
	}{
		{"zero requests", func(o *options) { o.requests = 0 }, "requests"},
		{"negative requests", func(o *options) { o.requests = -5 }, "requests"},
		{"zero load", func(o *options) { o.load = 0 }, "load"},
		{"negative load", func(o *options) { o.load = -1 }, "load"},
		{"zero devices", func(o *options) { o.devices = 0 }, "devices"},
		{"negative queue", func(o *options) { o.queue = -1 }, "queue"},
		{"negative deadline", func(o *options) { o.deadline = -time.Second }, "deadline"},
		{"negative drain", func(o *options) { o.drain = -time.Second }, "drain"},
		{"negative pace", func(o *options) { o.pace = -time.Millisecond }, "pace"},
		{"negative pace-scale", func(o *options) { o.paceScale = -0.5 }, "pace-scale"},
		{"zero batch", func(o *options) { o.batch = 0 }, "batch"},
		{"negative window", func(o *options) { o.window = -time.Millisecond }, "window"},
		{"window without batching", func(o *options) { o.window = time.Millisecond; o.batch = 1 }, "window"},
		{"zero dim", func(o *options) { o.dim = 0 }, "dim"},
		{"zero epochs", func(o *options) { o.epochs = 0 }, "epochs"},
		{"bad fleet class", func(o *options) { o.fleetSpec = "gpu=2" }, "fleet"},
		{"bad fleet count", func(o *options) { o.fleetSpec = "tpu=-1" }, "fleet"},
		{"bad fault plan", func(o *options) { o.faults = "nonsense=??" }, "faults"},
		{"zero nodes", func(o *options) { o.nodes = 0 }, "nodes"},
		{"negative nodes", func(o *options) { o.nodes = -2 }, "nodes"},
		{"negative probe", func(o *options) { o.probe = -time.Millisecond }, "probe"},
		{"negative scrub interval", func(o *options) { o.scrubInterval = -time.Millisecond }, "scrub-interval"},
		{"negative canary count", func(o *options) { o.canaryCount = -1 }, "canary"},
		{"canaries without an interval", func(o *options) { o.canaryCount = 2; o.canaryInterval = 0 }, "canary-interval"},
		{"bad chaos mode", func(o *options) { o.nodes = 4; o.chaosSpec = "0:melt" }, "chaos"},
		{"chaos node out of range", func(o *options) { o.nodes = 2; o.chaosSpec = "3:crash" }, "chaos"},
		{"bad hedge spec", func(o *options) { o.hedgeSpec = "soon" }, "hedge"},
		{"negative hedge delay", func(o *options) { o.hedgeSpec = "-5ms" }, "hedge"},
		{"listen behind router", func(o *options) { o.nodes = 4; o.listen = ":8080" }, "listen"},
		{"bad model spec", func(o *options) { o.modelSpec = "a;;b" }, "models"},
		{"bad model dim", func(o *options) { o.modelSpec = "a=d0" }, "models"},
		{"bad tenant spec", func(o *options) { o.tenantSpec = "a=w0" }, "tenants"},
		{"duplicate tenant", func(o *options) { o.tenantSpec = "a;a" }, "tenants"},
		{"negative mem budget", func(o *options) { o.modelSpec = "a;b"; o.memBudget = -1 }, "mem-budget"},
		{"mem budget without models", func(o *options) { o.memBudget = 1 << 20 }, "mem-budget"},
		{"unknown mem policy", func(o *options) { o.modelSpec = "a;b"; o.memPolicy = "fifo" }, "mem-policy"},
		{"bad online spec", func(o *options) { o.onlineSpec = "zzz=1" }, "online"},
		{"feedback rate above one", func(o *options) { o.onlineSpec = "on"; o.feedbackRate = 1.5 }, "feedback-rate"},
		{"feedback rate below zero", func(o *options) { o.onlineSpec = "on"; o.feedbackRate = -0.1 }, "feedback-rate"},
		{"feedback sampling needs online", func(o *options) { o.feedbackRate = 0.5 }, "feedback-rate"},
		{"online behind router", func(o *options) { o.onlineSpec = "on"; o.nodes = 4 }, "online"},
		{"online spec batch conflict", func(o *options) { o.onlineSpec = "batch=4" }, "online"},
		{"online override breaks buffer", func(o *options) { o.onlineSpec = "buffer=64,window=128" }, "online"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := validOptions()
			tc.mutate(o)
			err := o.validate()
			if err == nil {
				t.Fatalf("expected a validation error")
			}
			var fe *flagError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v (%T) is not a *flagError", err, err)
			}
			if fe.flag != tc.wantArg {
				t.Fatalf("error blames -%s, want -%s (%v)", fe.flag, tc.wantArg, err)
			}
		})
	}
}

// TestValidateParsesStructuredFlags checks the happy path for -fleet and
// -faults: validation parses them into the options.
func TestValidateParsesStructuredFlags(t *testing.T) {
	o := validOptions()
	o.fleetSpec = "tpu=2,cpu=2"
	o.faults = "link=0.05"
	if err := o.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got := len(o.fleet); got != 4 {
		t.Fatalf("fleet has %d workers, want 4", got)
	}
	cfg := o.config()
	if cfg.Fleet.String() != "tpu=2,cpu=2" {
		t.Fatalf("config fleet %v, want tpu=2,cpu=2", cfg.Fleet)
	}
}

// TestValidateParsesRouterFlags checks the happy path for the routing-tier
// flags: chaos plans land on their nodes with the fault seed, and the
// hedge spec parses into an enabled HedgeConfig.
func TestValidateParsesRouterFlags(t *testing.T) {
	o := validOptions()
	o.nodes = 4
	o.faultSeed = 11
	o.chaosSpec = "0:crash,1:slow=8"
	o.hedgeSpec = "12ms"
	if err := o.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !o.routed() {
		t.Fatal("routed() false with -nodes 4")
	}
	if len(o.chaos) != 2 {
		t.Fatalf("parsed %d chaos plans, want 2", len(o.chaos))
	}
	if got := o.chaos[1]; got.Mode != router.ChaosSlow || got.Factor != 8 {
		t.Fatalf("node 1 plan %+v, want slow=8", got)
	}
	if got := o.chaos[0].Seed; got != 11 {
		t.Fatalf("node 0 chaos seed %d, want faultSeed 11", got)
	}
	if !o.hedge.Enabled || o.hedge.Delay != 12*time.Millisecond {
		t.Fatalf("hedge config %+v, want enabled with 12ms delay", o.hedge)
	}

	o = validOptions()
	o.hedgeSpec = "adaptive"
	if err := o.validate(); err != nil {
		t.Fatalf("validate adaptive hedge: %v", err)
	}
	if !o.hedge.Enabled || o.hedge.Delay != 0 {
		t.Fatalf("adaptive hedge config %+v, want enabled with p99-tracking delay", o.hedge)
	}
	if !o.routed() {
		t.Fatal("routed() false with -hedge on a single node")
	}
}

// TestValidateIntegrityFlags checks the happy path for the integrity flags:
// scrubbing alone, canaries with their interval, and that the built policy
// (attached in main after model compile) flows into the serve config.
func TestValidateIntegrityFlags(t *testing.T) {
	o := validOptions()
	o.scrubInterval = 50 * time.Millisecond
	o.canaryCount = 4
	o.canaryInterval = 10 * time.Millisecond
	if err := o.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if cfg := o.config(); cfg.Integrity != nil {
		t.Fatalf("config carries a policy before main builds one: %+v", cfg.Integrity)
	}
	o.integrity = &integrity.Policy{ScrubInterval: o.scrubInterval}
	if cfg := o.config(); cfg.Integrity != o.integrity {
		t.Fatal("config does not carry the built integrity policy")
	}

	// Canary interval only matters when canaries are requested.
	o = validOptions()
	o.canaryInterval = 0
	if err := o.validate(); err != nil {
		t.Fatalf("zero canary-interval with no canaries rejected: %v", err)
	}
}

// TestValidateParsesTenancyFlags checks the happy path for -models,
// -tenants, -mem-budget and -mem-policy, and that annotate round-robins
// requests across both axes.
func TestValidateParsesTenancyFlags(t *testing.T) {
	o := validOptions()
	o.modelSpec = "main;wide=d1024"
	o.tenantSpec = "prod=w4,p1,q64,d50ms;batch"
	o.memBudget = 4 << 20
	o.memPolicy = "pin"
	if err := o.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if len(o.models) != 2 || o.models[1].Dim != 1024 {
		t.Fatalf("parsed models %+v", o.models)
	}
	if len(o.tenants) != 2 || o.tenants[0].Weight != 4 || o.tenants[0].Priority != 1 ||
		o.tenants[0].Quota != 64 || o.tenants[0].Deadline != 50*time.Millisecond {
		t.Fatalf("parsed tenants %+v", o.tenants)
	}
	if o.policy != registry.PinFirst {
		t.Fatalf("mem policy %v, want pin-first", o.policy)
	}
	cfg := o.config()
	if cfg.MemBudget != 4<<20 || cfg.MemPolicy != registry.PinFirst || len(cfg.Tenants) != 2 {
		t.Fatalf("config lost tenancy values: %+v", cfg)
	}
	// annotate round-robins both axes independently.
	r0, r1, r2 := o.annotate(0), o.annotate(1), o.annotate(2)
	if r0.Tenant != "prod" || r0.Model != "main" ||
		r1.Tenant != "batch" || r1.Model != "wide" ||
		r2.Tenant != "prod" || r2.Model != "main" {
		t.Fatalf("annotate sequence %+v %+v %+v", r0, r1, r2)
	}
}

// TestValidateParsesOnlineFlags checks the happy path for -online and its
// companion flag: the spec parses into a Config, its window= and
// threshold= keys tune the drift detector, and the published snapshot
// batch is forced to the serving -batch.
func TestValidateParsesOnlineFlags(t *testing.T) {
	o := validOptions()
	o.onlineSpec = "lr=0.5,window=32,threshold=0.25,every=8,bin"
	o.feedbackRate = 0.25
	if err := o.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	cfg := o.online
	if cfg == nil {
		t.Fatal("validate left o.online nil with -online set")
	}
	if cfg.LearningRate != 0.5 || cfg.SnapshotEvery != 8 || !cfg.Binarize {
		t.Fatalf("spec values lost: %+v", cfg)
	}
	if cfg.DriftWindow != 32 || cfg.DriftThreshold != 0.25 {
		t.Fatalf("drift keys lost: window %d threshold %g",
			cfg.DriftWindow, cfg.DriftThreshold)
	}
	if cfg.Batch != o.batch {
		t.Fatalf("snapshot batch %d, want serving batch %d", cfg.Batch, o.batch)
	}

	// "on" is all defaults; -feedback-rate 0 (no sampling) and 1 (all
	// requests) are legal without any drift tuning.
	o = validOptions()
	o.onlineSpec = "on"
	o.feedbackRate = 0
	if err := o.validate(); err != nil {
		t.Fatalf("validate -online on: %v", err)
	}
	if o.online == nil || o.online.Batch != o.batch {
		t.Fatalf("default spec config %+v", o.online)
	}
}

// TestParseFlags exercises the end-to-end flag path: parse failure from the
// flag package, validation failure, and success.
func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-requests", "0"}); err == nil {
		t.Fatal("parseFlags accepted -requests 0")
	}
	if _, err := parseFlags([]string{"-window", "-1ms", "-batch", "4"}); err == nil {
		t.Fatal("parseFlags accepted negative -window")
	}
	if _, err := parseFlags([]string{"-feedback-rate", "0.5"}); err == nil {
		t.Fatal("parseFlags accepted -feedback-rate without -online")
	}
	o, err := parseFlags([]string{"-batch", "4", "-window", "2ms", "-fleet", "tpu=1,cpu=1",
		"-scrub-interval", "40ms", "-canary", "2", "-online", "on", "-feedback-rate", "0.5"})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if o.batch != 4 || o.window != 2*time.Millisecond || len(o.fleet) != 2 {
		t.Fatalf("parsed options %+v lost flag values", o)
	}
	if o.scrubInterval != 40*time.Millisecond || o.canaryCount != 2 || o.canaryInterval != 25*time.Millisecond {
		t.Fatalf("parsed options %+v lost integrity flag values", o)
	}
	if o.online == nil || o.online.Batch != 4 || o.feedbackRate != 0.5 {
		t.Fatalf("parsed options lost online flag values: online %+v rate %g", o.online, o.feedbackRate)
	}
}
