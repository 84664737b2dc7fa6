package serve

import (
	"fmt"
	"strings"
	"time"

	"hdcedge/internal/integrity"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
	"hdcedge/internal/registry"
)

// BackendStats aggregates the workers of one backend class ("tpu", "cpu"):
// how much of the fleet they are, their breaker health, and their share of
// the serving work.
type BackendStats struct {
	Name           string // backend class name
	Workers        int    // workers of this class in the fleet
	BreakersClosed int    // of those, how many breakers are currently closed

	Invokes  int                // successful engine invokes
	Rows     int                // occupied rows summed across those invokes
	MaxRows  int                // largest single-invoke occupancy
	Requests int                // completed requests settled by this class
	SimTime  time.Duration      // simulated invoke time summed
	Busy     time.Duration      // wall-clock invoke + pacing occupancy
	Latency  *metrics.Histogram // e2e latency of requests served here

	Reliability pipeline.ReliabilityReport
}

// MeanOccupancy returns the class's mean occupied rows per invoke, or zero
// before its first invoke.
func (b BackendStats) MeanOccupancy() float64 {
	if b.Invokes == 0 {
		return 0
	}
	return float64(b.Rows) / float64(b.Invokes)
}

// TenantStats is one tenant's admission and completion breakdown; present
// only when the server is configured with tenants.
type TenantStats struct {
	Name           string
	Priority       int
	Weight         int
	Admitted       int
	Shed           int // all causes: draining, queue-full, tenant quota
	Completed      int
	DeadlineMissed int
	Latency        *metrics.Histogram // e2e latency of this tenant's completions
}

// ModelStats is one registered model's serving share.
type ModelStats struct {
	ID        string
	Version   int
	Footprint int           // on-chip parameter-memory occupancy, bytes
	Setup     time.Duration // per-miss re-setup price
	Requests  int           // completed requests served under this model
	Invokes   int           // successful engine invokes
	Swap      time.Duration // total re-setup billed across the fleet
}

// ServeReport is a point-in-time snapshot of everything the server counted:
// admission outcomes, completion latencies, the aggregated reliability work
// across all workers, the per-backend-class breakdowns, and the derived
// health.
type ServeReport struct {
	counters

	Devices     int       // worker-pool size
	Fleet       FleetSpec // backend class of each worker, in dispatch order
	Backends    []BackendStats
	Reliability pipeline.ReliabilityReport
	Health      Health

	// Integrity aggregates the per-worker integrity checkers (scrubs,
	// corruptions, canaries, repair-ladder work); nil when the server runs
	// without an integrity policy.
	Integrity *integrity.Report

	// Tenants breaks admission and completion down per tenant, in
	// registration order; empty without Config.Tenants.
	Tenants []TenantStats

	// Models breaks the serving work down per registered model, in
	// registration order.
	Models []ModelStats

	// Memory is each accelerated worker's simulated parameter-memory
	// accounting (hits, misses, evictions, swap billed), in worker order;
	// empty for a fleet without TPU workers.
	Memory []registry.MemStats
}

// Tenant returns one tenant's stats by name.
func (r ServeReport) Tenant(name string) (TenantStats, bool) {
	for _, t := range r.Tenants {
		if t.Name == name {
			return t, true
		}
	}
	return TenantStats{}, false
}

// Model returns one model's stats by registry ID.
func (r ServeReport) Model(id string) (ModelStats, bool) {
	for _, m := range r.Models {
		if m.ID == id {
			return m, true
		}
	}
	return ModelStats{}, false
}

// Backend returns the stats of one backend class by name, if the fleet has
// workers of that class.
func (r ServeReport) Backend(name string) (BackendStats, bool) {
	for _, b := range r.Backends {
		if b.Name == name {
			return b, true
		}
	}
	return BackendStats{}, false
}

// Shed returns the total requests refused at admission, by any cause.
func (r ServeReport) Shed() int { return r.ShedQueueFull + r.ShedDraining + r.ShedTenantQuota }

// MeanOccupancy returns the mean occupied rows per device invoke, or zero
// before the first completed invoke.
func (r ServeReport) MeanOccupancy() float64 {
	if r.BatchInvokes == 0 {
		return 0
	}
	return float64(r.BatchRows) / float64(r.BatchInvokes)
}

// Settled returns how many submitted requests have reached a terminal state.
func (r ServeReport) Settled() int {
	return r.Completed + r.Shed() + r.DeadlineExceeded + r.Cancelled + r.DrainForced + r.Failed
}

// String renders a multi-line operator summary.
func (r ServeReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "serve: %d submitted, %d admitted, %d completed (%d on host), health %s\n",
		r.Submitted, r.Admitted, r.Completed, r.HostFallback, r.Health)
	fmt.Fprintf(&sb, "  shed %d (%d queue-full, %d draining, %d tenant-quota), %d deadline-exceeded, %d cancelled, %d drain-forced, %d failed\n",
		r.Shed(), r.ShedQueueFull, r.ShedDraining, r.ShedTenantQuota, r.DeadlineExceeded, r.Cancelled, r.DrainForced, r.Failed)
	fmt.Fprintf(&sb, "  queue depth max %d across %d worker(s) [%s]\n", r.MaxQueueDepth, r.Devices, r.Fleet)
	fmt.Fprintf(&sb, "  e2e %s\n", r.Latency)
	fmt.Fprintf(&sb, "  queue-wait n=%d p50=%s p99=%s max=%s\n",
		r.QueueWait.Count(), metrics.FmtDur(r.QueueWait.Quantile(0.5)),
		metrics.FmtDur(r.QueueWait.Quantile(0.99)), metrics.FmtDur(r.QueueWait.Max()))
	fmt.Fprintf(&sb, "  batching: %d invokes, %d rows, occupancy mean %.2f max %d, per-sample p50=%s p99=%s\n",
		r.BatchInvokes, r.BatchRows, r.MeanOccupancy(), r.MaxBatchRows,
		metrics.FmtDur(r.PerSample.Quantile(0.5)), metrics.FmtDur(r.PerSample.Quantile(0.99)))
	for _, b := range r.Backends {
		fmt.Fprintf(&sb, "  backend %s: %d worker(s) (%d/%d breakers closed), %d requests via %d invokes (occupancy mean %.2f max %d), sim %s busy %s, e2e p50=%s p99=%s\n",
			b.Name, b.Workers, b.BreakersClosed, b.Workers,
			b.Requests, b.Invokes, b.MeanOccupancy(), b.MaxRows,
			metrics.FmtDur(b.SimTime), metrics.FmtDur(b.Busy),
			metrics.FmtDur(b.Latency.Quantile(0.5)), metrics.FmtDur(b.Latency.Quantile(0.99)))
	}
	for _, t := range r.Tenants {
		fmt.Fprintf(&sb, "  tenant %s (p%d w%d): %d admitted, %d shed, %d completed, %d deadline-missed, e2e p50=%s p99=%s\n",
			t.Name, t.Priority, t.Weight, t.Admitted, t.Shed, t.Completed, t.DeadlineMissed,
			metrics.FmtDur(t.Latency.Quantile(0.5)), metrics.FmtDur(t.Latency.Quantile(0.99)))
	}
	for _, m := range r.Models {
		fmt.Fprintf(&sb, "  model %s@v%d: %d requests via %d invokes, footprint %dB, setup %s, swap billed %s\n",
			m.ID, m.Version, m.Requests, m.Invokes, m.Footprint,
			metrics.FmtDur(m.Setup), metrics.FmtDur(m.Swap))
	}
	for _, ms := range r.Memory {
		fmt.Fprintf(&sb, "  device %d memory: %d/%d bytes, %d resident, %d hits, %d misses, %d evictions, swap %s\n",
			ms.Device, ms.Used, ms.Budget, ms.Resident, ms.Hits, ms.Misses, ms.Evictions,
			metrics.FmtDur(ms.SwapTime))
	}
	if g := r.Integrity; g != nil {
		fmt.Fprintf(&sb, "  integrity: %d scrubs (%d corruptions), %d canary runs (%d failures), %d incidents (%d repaired), repairs %d reupload / %d reload / %d reset / %d quarantine, repair sim %s",
			g.Scrubs, g.Corruptions, g.CanaryRuns, g.CanaryFailures,
			g.Incidents, g.Repaired, g.Restores, g.Reloads, g.Resets, g.Quarantines,
			metrics.FmtDur(g.RepairSimTime))
		if g.TimeToRepair != nil && g.TimeToRepair.Count() > 0 {
			fmt.Fprintf(&sb, ", time-to-repair mean %s max %s",
				metrics.FmtDur(g.TimeToRepair.Mean()), metrics.FmtDur(g.TimeToRepair.Max()))
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "  %s", r.Reliability)
	return sb.String()
}
