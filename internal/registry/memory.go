package registry

import (
	"fmt"
	"sync"
	"time"

	"hdcedge/internal/metrics"
)

// EvictPolicy selects how a DeviceMemory makes room under pressure.
type EvictPolicy int

const (
	// EvictLRU evicts the least-recently-used resident models until the
	// incoming one fits — the adaptive policy.
	EvictLRU EvictPolicy = iota
	// PinFirst pins the models in first-touch order: whatever fit first
	// stays resident forever, and later models stream (pay full re-setup
	// on every access). The static baseline the LRU ablation is judged
	// against.
	PinFirst
)

// String renders the policy.
func (p EvictPolicy) String() string {
	switch p {
	case EvictLRU:
		return "lru"
	case PinFirst:
		return "pin-first"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// EventKind classifies one residency transition.
type EventKind int

const (
	// EvHit: the model was resident; the invoke pays nothing.
	EvHit EventKind = iota
	// EvMiss: the model was not resident; the invoke pays Setup. If the
	// model fit (after any evictions) it is now resident; a model larger
	// than the whole budget streams and stays non-resident.
	EvMiss
	// EvEvict: a resident model was pushed out to make room.
	EvEvict
)

// String renders the kind.
func (k EventKind) String() string {
	switch k {
	case EvHit:
		return "hit"
	case EvMiss:
		return "miss"
	case EvEvict:
		return "evict"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one typed residency transition. Seq is drawn from the owning
// registry's global counter, so events merged across devices sort into one
// total order; within a device they are already ordered.
type Event struct {
	Seq      uint64
	Device   int // the DeviceMemory's device index
	Kind     EventKind
	Model    string
	Version  int
	Bytes    int           // the model's footprint
	Setup    time.Duration // re-setup billed (EvMiss only)
	Resident bool          // whether the model is resident after the event
}

// String renders the event.
func (e Event) String() string {
	s := fmt.Sprintf("#%d dev%d %s %s@v%d (%dB)", e.Seq, e.Device, e.Kind, e.Model, e.Version, e.Bytes)
	if e.Kind == EvMiss {
		s += fmt.Sprintf(" setup=%v resident=%v", e.Setup, e.Resident)
	}
	return s
}

// Admission is what one Acquire decided: whether the model was already
// on-chip, what re-setup the invoke must be billed, and who was evicted to
// make room.
type Admission struct {
	Hit      bool
	Resident bool // resident after this admission
	Setup    time.Duration
	Evicted  []string
}

// MemStats is one DeviceMemory's running accounting.
type MemStats struct {
	Device    int
	Budget    int
	Used      int
	Resident  int // resident model count
	Hits      int
	Misses    int
	Evictions int
	SwapTime  time.Duration // total re-setup billed
}

// resident is one on-chip model.
type resident struct {
	id      string
	version int
	bytes   int
	lastUse uint64 // logical-clock touch, not wall time: deterministic
}

// memMetrics holds a DeviceMemory's counts; Stats is a view of them.
type memMetrics struct {
	hits, misses, evictions, swapNs *metrics.Counter
	used, residentN                 *metrics.Gauge
}

// newMemMetrics resolves a device's handles in reg under the inline label
// set labels.
func newMemMetrics(reg *metrics.Registry, labels string) *memMetrics {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	return &memMetrics{
		hits:      reg.Counter("hdc_registry_hits_total" + suffix),
		misses:    reg.Counter("hdc_registry_misses_total" + suffix),
		evictions: reg.Counter("hdc_registry_evictions_total" + suffix),
		swapNs:    reg.Counter("hdc_registry_swap_ns_total" + suffix),
		used:      reg.Gauge("hdc_registry_mem_used_bytes" + suffix),
		residentN: reg.Gauge("hdc_registry_resident_models" + suffix),
	}
}

// eventCap bounds the retained event log per device; a long-running server
// keeps the most recent transitions, which is what operators and the
// determinism tests look at. Once full the log is a ring: a new event
// overwrites the oldest in place, so logging never copies the log.
const eventCap = 4096

// DeviceMemory simulates one accelerator's bounded on-chip parameter
// memory over the registry's model footprints. Acquire is called by the
// owning worker before each invoke; reads (Stats, Events, Resident) are
// safe from anywhere. Eviction order uses a logical touch counter, never
// wall time, so the same arrival order always yields the same eviction
// sequence and the same re-setup billing.
type DeviceMemory struct {
	reg    *Registry
	device int
	budget int
	policy EvictPolicy

	mu     sync.Mutex
	models map[string]*resident
	used   int
	tick   uint64
	events []Event // ring of up to eventCap; oldest at evHead once full
	evHead int
	met    *memMetrics // private until Instrument
}

// NewDeviceMemory creates the occupancy tracker for one device. budget is
// the parameter-memory size in bytes and must be positive.
func (g *Registry) NewDeviceMemory(device, budget int, policy EvictPolicy) (*DeviceMemory, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("registry: device %d memory budget %d must be positive", device, budget)
	}
	return &DeviceMemory{
		reg:    g,
		device: device,
		budget: budget,
		policy: policy,
		models: map[string]*resident{},
		met:    newMemMetrics(metrics.NewRegistry(), ""),
	}, nil
}

// Instrument moves the device's residency counts into reg under the given
// label set (e.g. `worker="0"`). Call before the first Acquire.
func (d *DeviceMemory) Instrument(reg *metrics.Registry, labels string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.met = newMemMetrics(reg, labels)
	d.publishGauges()
}

// Preload inserts e as resident without billing or events — the
// construction-time model upload a server performs before serving starts,
// as the device's own LoadModel does. Preloaded models still participate
// in LRU normally afterwards.
func (d *DeviceMemory) Preload(e *Entry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.Footprint > d.budget {
		return
	}
	if r, ok := d.models[e.ID]; ok {
		r.version = e.Version
		return
	}
	d.tick++
	d.models[e.ID] = &resident{id: e.ID, version: e.Version, bytes: e.Footprint, lastUse: d.tick}
	d.used += e.Footprint
	d.publishGauges()
}

// Acquire admits one invoke of e: a hit costs nothing, a miss bills the
// entry's deterministic re-setup cost and (under LRU) evicts
// least-recently-used residents until the model fits. A model wider than
// the whole budget streams: it pays re-setup every time and never becomes
// resident. A version change (hot swap) invalidates the old residency.
func (d *DeviceMemory) Acquire(e *Entry) Admission {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick++

	if r, ok := d.models[e.ID]; ok {
		if r.version == e.Version {
			r.lastUse = d.tick
			d.met.hits.Inc()
			d.record(Event{Kind: EvHit, Model: e.ID, Version: e.Version, Bytes: r.bytes, Resident: true})
			return Admission{Hit: true, Resident: true}
		}
		// Hot-swapped since it was loaded: the stale parameters are dead
		// weight; drop them and fall through to the miss path.
		d.evict(r)
	}

	adm := Admission{Setup: e.Setup}
	if e.Footprint <= d.budget {
		if d.policy == EvictLRU {
			for d.used+e.Footprint > d.budget {
				v := d.lruVictim()
				adm.Evicted = append(adm.Evicted, v.id)
				d.evict(v)
			}
		}
		if d.used+e.Footprint <= d.budget {
			d.models[e.ID] = &resident{id: e.ID, version: e.Version, bytes: e.Footprint, lastUse: d.tick}
			d.used += e.Footprint
			adm.Resident = true
		}
	}
	d.met.misses.Inc()
	d.met.swapNs.Add(int64(e.Setup))
	d.record(Event{Kind: EvMiss, Model: e.ID, Version: e.Version, Bytes: e.Footprint,
		Setup: e.Setup, Resident: adm.Resident})
	d.publishGauges()
	return adm
}

// lruVictim returns the least-recently-used resident, ties broken by ID so
// the choice is fully deterministic even if two touches shared a tick
// (they cannot, but the tie-break makes that a non-assumption).
func (d *DeviceMemory) lruVictim() *resident {
	var v *resident
	for _, r := range d.models {
		if v == nil || r.lastUse < v.lastUse || (r.lastUse == v.lastUse && r.id < v.id) {
			v = r
		}
	}
	return v
}

// evict removes r and records the transition. Caller holds d.mu.
func (d *DeviceMemory) evict(r *resident) {
	delete(d.models, r.id)
	d.used -= r.bytes
	d.met.evictions.Inc()
	d.record(Event{Kind: EvEvict, Model: r.id, Version: r.version, Bytes: r.bytes})
}

// record stamps the event with the registry-global sequence and adds it to
// the bounded log, overwriting the oldest event once eventCap are held.
// Caller holds d.mu.
func (d *DeviceMemory) record(e Event) {
	e.Seq = d.reg.seq.Add(1)
	e.Device = d.device
	if len(d.events) < eventCap {
		d.events = append(d.events, e)
		return
	}
	d.events[d.evHead] = e
	d.evHead = (d.evHead + 1) % eventCap
}

// publishGauges refreshes the occupancy gauges. Caller holds d.mu.
func (d *DeviceMemory) publishGauges() {
	d.met.used.Set(int64(d.used))
	d.met.residentN.Set(int64(len(d.models)))
}

// Resident reports whether id is currently on-chip.
func (d *DeviceMemory) Resident(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.models[id]
	return ok
}

// Stats reads the device's residency accounting from its metric handles.
func (d *DeviceMemory) Stats() MemStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.met
	return MemStats{
		Device:    d.device,
		Budget:    d.budget,
		Used:      int(m.used.Value()),
		Resident:  int(m.residentN.Value()),
		Hits:      int(m.hits.Value()),
		Misses:    int(m.misses.Value()),
		Evictions: int(m.evictions.Value()),
		SwapTime:  time.Duration(m.swapNs.Value()),
	}
}

// Events returns the retained residency transitions in order (the most
// recent eventCap of them).
func (d *DeviceMemory) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Event, len(d.events))
	n := copy(out, d.events[d.evHead:])
	copy(out[n:], d.events[:d.evHead])
	return out
}
