package serve

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hdcedge/internal/metrics"
)

// This file is the multi-tenant half of the serving core: tenant and model
// spec parsing (typed errors, same discipline as ParseFleet) and the
// admission scheduler — strict priority classes, stride-based weighted-fair
// queuing within a class, per-tenant quotas and deadlines. With no tenants
// configured the scheduler degenerates to one FIFO. See docs/multitenant.md.

// TenantSpec is one tenant's scheduling contract.
type TenantSpec struct {
	// Name identifies the tenant on requests and in metrics labels.
	Name string

	// Weight is the tenant's weighted-fair share within its priority
	// class. Zero defaults to 1.
	Weight int

	// Priority is the strict priority class: a queued request of a
	// higher-priority tenant always dispatches before any lower-priority
	// one. Default 0.
	Priority int

	// Quota bounds the tenant's queued (admitted, undispatched) requests;
	// an arrival beyond it is shed with ShedTenantQuota even when the
	// global queue has room — this is what keeps one tenant's flood from
	// consuming everyone's admission capacity. Zero means no per-tenant
	// bound.
	Quota int

	// Deadline is the default deadline for this tenant's requests when
	// their context carries none. Zero falls back to Config.DefaultDeadline.
	Deadline time.Duration
}

// weight returns the effective WFQ weight.
func (t TenantSpec) weight() int { return max(t.Weight, 1) }

// TenantError reports a rejected tenant spec string: which segment was bad
// and why. Segment is empty for spec-level faults.
type TenantError struct {
	Spec    string
	Segment string
	Reason  string
}

func (e *TenantError) Error() string {
	if e.Segment == "" {
		return fmt.Sprintf("serve: tenant spec %q: %s", e.Spec, e.Reason)
	}
	return fmt.Sprintf("serve: tenant spec %q segment %q: %s", e.Spec, e.Segment, e.Reason)
}

// ParseTenants parses a tenant spec like
//
//	"prod=w4,p1,q64,d50ms;batch=w1,q16;free"
//
// Segments are ';'-separated "name" or "name=opts"; opts are ','-separated
// w<weight>, p<priority>, q<quota>, d<duration>. Empty segments, duplicate
// names, repeated options and non-positive weights are rejected with a
// *TenantError rather than silently folded, so a typo'd spec cannot
// quietly mis-provision a tenant.
func ParseTenants(spec string) ([]TenantSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, &TenantError{Spec: spec, Reason: "empty spec"}
	}
	var tenants []TenantSpec
	seen := map[string]bool{}
	for _, seg := range strings.Split(spec, ";") {
		trimmed := strings.TrimSpace(seg)
		if trimmed == "" {
			return nil, &TenantError{Spec: spec, Segment: seg, Reason: "empty segment"}
		}
		name, optStr, hasOpts := strings.Cut(trimmed, "=")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, &TenantError{Spec: spec, Segment: trimmed, Reason: "empty tenant name"}
		}
		if seen[name] {
			return nil, &TenantError{Spec: spec, Segment: trimmed,
				Reason: fmt.Sprintf("duplicate tenant %q", name)}
		}
		seen[name] = true
		t := TenantSpec{Name: name}
		if hasOpts {
			set := map[byte]bool{}
			for _, opt := range strings.Split(optStr, ",") {
				opt = strings.TrimSpace(opt)
				if opt == "" {
					return nil, &TenantError{Spec: spec, Segment: trimmed, Reason: "empty option"}
				}
				key, val := opt[0], opt[1:]
				if set[key] {
					return nil, &TenantError{Spec: spec, Segment: trimmed,
						Reason: fmt.Sprintf("repeated option %q", string(key))}
				}
				set[key] = true
				switch key {
				case 'w', 'p', 'q':
					n, err := strconv.Atoi(val)
					if err != nil {
						return nil, &TenantError{Spec: spec, Segment: trimmed,
							Reason: fmt.Sprintf("option %q is not an integer", opt)}
					}
					switch key {
					case 'w':
						if n <= 0 {
							return nil, &TenantError{Spec: spec, Segment: trimmed,
								Reason: fmt.Sprintf("weight %d must be at least 1", n)}
						}
						t.Weight = n
					case 'p':
						if n < 0 {
							return nil, &TenantError{Spec: spec, Segment: trimmed,
								Reason: fmt.Sprintf("priority %d must be non-negative", n)}
						}
						t.Priority = n
					case 'q':
						if n < 0 {
							return nil, &TenantError{Spec: spec, Segment: trimmed,
								Reason: fmt.Sprintf("quota %d must be non-negative", n)}
						}
						t.Quota = n
					}
				case 'd':
					d, err := time.ParseDuration(val)
					if err != nil || d < 0 {
						return nil, &TenantError{Spec: spec, Segment: trimmed,
							Reason: fmt.Sprintf("option %q is not a non-negative duration", opt)}
					}
					t.Deadline = d
				default:
					return nil, &TenantError{Spec: spec, Segment: trimmed,
						Reason: fmt.Sprintf("unknown option %q (have w, p, q, d)", opt)}
				}
			}
		}
		tenants = append(tenants, t)
	}
	return tenants, nil
}

// ModelSpec names one model to train/compile and serve: its registry ID
// and, optionally, its hypervector dimension (zero means the caller's
// default).
type ModelSpec struct {
	Name string
	Dim  int
}

// ModelError reports a rejected model spec string.
type ModelError struct {
	Spec    string
	Segment string
	Reason  string
}

func (e *ModelError) Error() string {
	if e.Segment == "" {
		return fmt.Sprintf("serve: model spec %q: %s", e.Spec, e.Reason)
	}
	return fmt.Sprintf("serve: model spec %q segment %q: %s", e.Spec, e.Segment, e.Reason)
}

// ParseModels parses a model spec like "main=d2048;wide=d4096;tiny".
// Segments are ';'-separated "name" or "name=d<dim>". Empty segments,
// duplicate names and non-positive dimensions are rejected with a
// *ModelError.
func ParseModels(spec string) ([]ModelSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, &ModelError{Spec: spec, Reason: "empty spec"}
	}
	var models []ModelSpec
	seen := map[string]bool{}
	for _, seg := range strings.Split(spec, ";") {
		trimmed := strings.TrimSpace(seg)
		if trimmed == "" {
			return nil, &ModelError{Spec: spec, Segment: seg, Reason: "empty segment"}
		}
		name, optStr, hasOpts := strings.Cut(trimmed, "=")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, &ModelError{Spec: spec, Segment: trimmed, Reason: "empty model name"}
		}
		if seen[name] {
			return nil, &ModelError{Spec: spec, Segment: trimmed,
				Reason: fmt.Sprintf("duplicate model %q", name)}
		}
		seen[name] = true
		m := ModelSpec{Name: name}
		if hasOpts {
			opt := strings.TrimSpace(optStr)
			if len(opt) < 2 || opt[0] != 'd' {
				return nil, &ModelError{Spec: spec, Segment: trimmed,
					Reason: fmt.Sprintf("unknown option %q (have d<dim>)", opt)}
			}
			n, err := strconv.Atoi(opt[1:])
			if err != nil || n <= 0 {
				return nil, &ModelError{Spec: spec, Segment: trimmed,
					Reason: fmt.Sprintf("option %q is not a positive dimension", opt)}
			}
			m.Dim = n
		}
		models = append(models, m)
	}
	return models, nil
}

// UnknownTenantError is returned by Submit for a request naming a tenant
// the server was not configured with.
type UnknownTenantError struct{ Name string }

func (e *UnknownTenantError) Error() string {
	return fmt.Sprintf("serve: unknown tenant %q", e.Name)
}

// UnknownModelError is returned by Submit for a request naming a model the
// registry does not hold.
type UnknownModelError struct{ Model string }

func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("serve: unknown model %q", e.Model)
}

// tenantMetrics are one tenant's live registry handles; nil without
// configured tenants, so a tenant-less server exports no hdc_tenant_*
// series.
type tenantMetrics struct {
	admitted       *metrics.Counter
	shed           *metrics.Counter
	completed      *metrics.Counter
	deadlineMissed *metrics.Counter
	latency        *metrics.LiveHistogram
}

// newTenantMetrics resolves one tenant's labelled handles.
func newTenantMetrics(reg *metrics.Registry, name string) *tenantMetrics {
	l := fmt.Sprintf(`{tenant=%q}`, name)
	return &tenantMetrics{
		admitted:       reg.Counter("hdc_tenant_admitted_total" + l),
		shed:           reg.Counter("hdc_tenant_shed_total" + l),
		completed:      reg.Counter("hdc_tenant_completed_total" + l),
		deadlineMissed: reg.Counter("hdc_tenant_deadline_missed_total" + l),
		latency:        reg.Histogram("hdc_tenant_latency_seconds" + l),
	}
}

// tenantState is one tenant's queue and scheduling position. Guarded by
// Server.mu (the scheduler lives entirely under the admission lock).
type tenantState struct {
	spec   TenantSpec
	idx    int // registration order, the deterministic tie-break
	q      []*request
	pass   float64 // stride-scheduling virtual time
	stride float64 // 1 / weight
	met    *tenantMetrics
}

// scheduler is the admission queue refactored for tenancy: one FIFO per
// tenant, dispatched by strict priority then weighted-fair stride order.
// All methods are called under Server.mu.
type scheduler struct {
	tenants []*tenantState
	byName  map[string]*tenantState
	depth   int // total queued requests across tenants
}

// newScheduler builds the per-tenant queues; with no specs it creates the
// single anonymous tenant whose FIFO is the whole queue.
func newScheduler(specs []TenantSpec) *scheduler {
	if len(specs) == 0 {
		specs = []TenantSpec{{}}
	}
	sc := &scheduler{byName: make(map[string]*tenantState, len(specs))}
	for i, spec := range specs {
		t := &tenantState{spec: spec, idx: i, stride: 1 / float64(spec.weight())}
		sc.tenants = append(sc.tenants, t)
		sc.byName[spec.Name] = t
	}
	return sc
}

// tenant resolves a request's tenant name; "" maps to the first tenant.
func (sc *scheduler) tenant(name string) (*tenantState, bool) {
	if name == "" {
		return sc.tenants[0], true
	}
	t, ok := sc.byName[name]
	return t, ok
}

// push enqueues r on its tenant. A tenant waking from idle has its virtual
// time advanced to the lead of its backlogged peers in the same priority
// class, so banked idle time cannot starve everyone else later.
func (sc *scheduler) push(t *tenantState, r *request) {
	if len(t.q) == 0 {
		lead, ok := sc.minActivePass(t.spec.Priority)
		if ok && lead > t.pass {
			t.pass = lead
		}
	}
	t.q = append(t.q, r)
	sc.depth++
}

// minActivePass returns the smallest virtual time among backlogged tenants
// of the given priority class.
func (sc *scheduler) minActivePass(priority int) (float64, bool) {
	lead, ok := 0.0, false
	for _, t := range sc.tenants {
		if len(t.q) == 0 || t.spec.Priority != priority {
			continue
		}
		if !ok || t.pass < lead {
			lead, ok = t.pass, true
		}
	}
	return lead, ok
}

// pickTenant returns the backlogged tenant to serve next — the highest
// priority class, weighted-fair (minimum virtual time) within it, ties
// broken by registration order — optionally restricted to tenants whose
// head request carries the given model. nil when nothing is eligible.
func (sc *scheduler) pickTenant(model string, matchModel bool) *tenantState {
	var best *tenantState
	for _, t := range sc.tenants {
		if len(t.q) == 0 {
			continue
		}
		if matchModel && t.q[0].model != model {
			continue
		}
		if best == nil ||
			t.spec.Priority > best.spec.Priority ||
			(t.spec.Priority == best.spec.Priority && t.pass < best.pass) {
			best = t
		}
	}
	return best
}

// popFrom dequeues t's head and charges its stride.
func (sc *scheduler) popFrom(t *tenantState) *request {
	r := t.q[0]
	t.q = t.q[1:]
	sc.depth--
	t.pass += t.stride
	return r
}

// next dequeues the scheduler's next request, or nil when empty.
func (sc *scheduler) next() *request {
	t := sc.pickTenant("", false)
	if t == nil {
		return nil
	}
	return sc.popFrom(t)
}

// nextMatching dequeues the next request whose model is model, in the same
// priority/WFQ order, looking only at queue heads (a tenant's own FIFO
// order is never reordered). Settled heads are discarded in passing so a
// dead request cannot wall off a matching one behind it.
func (sc *scheduler) nextMatching(model string) *request {
	for {
		// Discard settled heads first so matching sees live requests.
		progress := false
		for _, t := range sc.tenants {
			for len(t.q) > 0 && t.q[0].settled.Load() {
				t.q = t.q[1:]
				sc.depth--
				progress = true
			}
		}
		t := sc.pickTenant(model, true)
		if t != nil {
			return sc.popFrom(t)
		}
		if !progress {
			return nil
		}
	}
}

// takeAll empties every queue (the drain force path), returning the
// stranded requests.
func (sc *scheduler) takeAll() []*request {
	var out []*request
	for _, t := range sc.tenants {
		out = append(out, t.q...)
		t.q = nil
	}
	sc.depth = 0
	return out
}
