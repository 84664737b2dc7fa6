// Package registry is the multi-model serving catalog: it holds N compiled
// models (int8 accelerator graphs, optionally paired with their bit-packed
// bipolar deployment forms) behind stable string IDs, supports hot load and
// swap, and knows each model's real on-chip parameter-memory footprint from
// the compiler's memory map. DeviceMemory (memory.go) simulates the
// accelerator's bounded parameter memory over those footprints: residency,
// LRU eviction under pressure, and a deterministic re-setup bill on every
// miss, priced from the edge-TPU link roofline. See docs/multitenant.md.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdcedge/internal/cpuarch"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/integrity"
)

// Entry is one registered model. Entries are immutable once returned from
// Register/Swap: a hot swap installs a new Entry under the same ID with a
// bumped Version rather than mutating the old one, so a worker holding the
// previous Entry keeps a coherent (if stale) view until its next bind.
type Entry struct {
	// ID is the registry key, e.g. "isolet-d2048".
	ID string

	// Version increments on every Swap of this ID, starting at 1. Worker
	// binds and device residency are keyed by (ID, Version): a swap
	// invalidates both, forcing a rebuild and a re-upload.
	Version int

	// Compiled is the accelerator-partitioned int8 graph.
	Compiled *edgetpu.CompiledModel

	// Bipolar, when non-nil, is the sign-quantized bit-packed form binary
	// HDC ("bin") workers serve for this model.
	Bipolar *hdc.BipolarModel

	// Footprint is the model's on-chip parameter-memory occupancy in
	// bytes — the compiler memory map's aligned allocation, not the raw
	// parameter bytes — which is what DeviceMemory budgets against. Zero
	// for a graph the compiler marked non-resident, whose weights stream
	// on every invoke instead.
	Footprint int

	// BlobBytes is the serialized model size: what the host must push over
	// the link before the device can execute the graph at all.
	BlobBytes int

	// Setup is the deterministic re-setup cost a device pays to bring this
	// model back on-chip after eviction: the model blob download plus the
	// parameter upload, both priced by the device link roofline. A cache
	// hit pays none of it.
	Setup time.Duration

	goldenOnce sync.Once
	golden     *integrity.Golden
	goldenErr  error
}

// HostSetup prices loading this model into a host interpreter on the given
// CPU: one memory-bound pass over the serialized blob. It is the host-side
// analogue of Setup, used for a host worker's first bind of a model.
func (e *Entry) HostSetup(host cpuarch.Spec) time.Duration {
	return host.StreamTime(e.BlobBytes)
}

// Golden returns this entry's golden integrity reference (per-segment
// checksums of the delegated parameters), computed once and shared
// read-only across workers.
func (e *Entry) Golden() (*integrity.Golden, error) {
	e.goldenOnce.Do(func() {
		e.golden, e.goldenErr = integrity.ComputeGolden(e.Compiled)
	})
	return e.golden, e.goldenErr
}

// catalog is one immutable snapshot of the registry contents. Mutators
// never modify a published catalog: they build a fresh one and publish it
// with a single atomic pointer store (copy-on-write).
type catalog struct {
	entries map[string]*Entry
	order   []string // registration order, stable across swaps
}

// clone returns a mutable copy sharing no structure with c.
func (c *catalog) clone() *catalog {
	n := &catalog{
		entries: make(map[string]*Entry, len(c.entries)),
		order:   append([]string(nil), c.order...),
	}
	for id, e := range c.entries {
		n.entries[id] = e
	}
	return n
}

// Registry is the model catalog. All methods are safe for concurrent use.
// Readers (Get, IDs, Len) are lock-free — they load the current immutable
// catalog with one atomic pointer read — so a trainer hot-swapping models
// through Swap never blocks the serving invoke path, and vice versa.
// Mutators serialize on an internal mutex and publish copy-on-write.
type Registry struct {
	mu  sync.Mutex // serializes mutators; readers never take it
	cat atomic.Pointer[catalog]

	// seq is the global residency-event sequence shared by every
	// DeviceMemory created from this registry, so events from different
	// devices interleave in one total order.
	seq atomic.Uint64
}

// New returns an empty registry.
func New() *Registry {
	g := &Registry{}
	g.cat.Store(&catalog{entries: map[string]*Entry{}})
	return g
}

// build assembles an Entry from its parts, pricing footprint and setup
// from the compiled model's own device config.
func build(id string, version int, cm *edgetpu.CompiledModel, bip *hdc.BipolarModel) (*Entry, error) {
	if id == "" {
		return nil, fmt.Errorf("registry: empty model ID")
	}
	if cm == nil {
		return nil, fmt.Errorf("registry: model %q: nil compiled model", id)
	}
	blob := cm.Model.MarshaledSize()
	// A graph the compiler marked non-resident keeps nothing on chip: the
	// device streams its weights on every invoke and bills them there, so
	// it occupies no budget and its re-setup is the blob alone.
	foot := 0
	if cm.Resident {
		foot = cm.MemoryMap().Used
	}
	return &Entry{
		ID:        id,
		Version:   version,
		Compiled:  cm,
		Bipolar:   bip,
		Footprint: foot,
		BlobBytes: blob,
		Setup:     cm.Config.TransferTime(blob) + cm.Config.TransferTime(foot),
	}, nil
}

// Register adds a model under id. Registering an already-registered ID is
// an error; use Swap to replace a live model.
func (g *Registry) Register(id string, cm *edgetpu.CompiledModel, bip *hdc.BipolarModel) (*Entry, error) {
	e, err := build(id, 1, cm, bip)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	cat := g.cat.Load()
	if _, dup := cat.entries[id]; dup {
		return nil, fmt.Errorf("registry: model %q already registered", id)
	}
	next := cat.clone()
	next.entries[id] = e
	next.order = append(next.order, id)
	g.cat.Store(next)
	return e, nil
}

// Swap hot-replaces the model under id with a new compiled form, bumping
// its version. Workers rebuild their binds and devices re-upload the
// parameters on their next touch of the ID; in-flight invokes against the
// old entry finish undisturbed.
func (g *Registry) Swap(id string, cm *edgetpu.CompiledModel, bip *hdc.BipolarModel) (*Entry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cat := g.cat.Load()
	old, ok := cat.entries[id]
	if !ok {
		return nil, fmt.Errorf("registry: swap of unregistered model %q", id)
	}
	e, err := build(id, old.Version+1, cm, bip)
	if err != nil {
		return nil, err
	}
	next := cat.clone()
	next.entries[id] = e
	g.cat.Store(next)
	return e, nil
}

// Get returns the current entry for id. It is lock-free: one atomic load
// of the published catalog, so the serving invoke path never contends
// with a trainer publishing snapshots through Swap.
func (g *Registry) Get(id string) (*Entry, bool) {
	e, ok := g.cat.Load().entries[id]
	return e, ok
}

// IDs returns the registered model IDs in registration order (lock-free).
func (g *Registry) IDs() []string {
	order := g.cat.Load().order
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// Len returns the number of registered models (lock-free).
func (g *Registry) Len() int {
	return len(g.cat.Load().entries)
}

// SortEvents orders a merged event slice by global sequence number, the
// total order the shared registry counter imposes across devices.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
}
