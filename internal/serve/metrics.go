package serve

import "hdcedge/internal/metrics"

// This file binds the server to its live metrics registry. Every counter,
// gauge and histogram the server maintains lives in the registry as a named
// metric; the handles below are pre-resolved at construction so the hot
// path records through atomic objects without ever touching the registry
// maps. ServeReport's counters are materialized from the same handles —
// there is exactly one set of books.

// serveMetrics holds the server's pre-resolved registry handles.
type serveMetrics struct {
	reg *metrics.Registry

	submitted        *metrics.Counter
	admitted         *metrics.Counter
	completed        *metrics.Counter
	shedQueueFull    *metrics.Counter
	shedDraining     *metrics.Counter
	shedTenantQuota  *metrics.Counter
	deadlineExceeded *metrics.Counter
	cancelled        *metrics.Counter
	drainForced      *metrics.Counter
	failed           *metrics.Counter
	hostFallback     *metrics.Counter
	batchInvokes     *metrics.Counter
	batchRows        *metrics.Counter

	queueDepth    *metrics.Gauge
	queueDepthMax *metrics.Gauge
	batchRowsMax  *metrics.Gauge

	latency   *metrics.LiveHistogram
	queueWait *metrics.LiveHistogram
	perSample *metrics.LiveHistogram
}

// newServeMetrics resolves the server's metric handles in reg.
func newServeMetrics(reg *metrics.Registry) *serveMetrics {
	return &serveMetrics{
		reg:              reg,
		submitted:        reg.Counter("hdc_serve_submitted_total"),
		admitted:         reg.Counter("hdc_serve_admitted_total"),
		completed:        reg.Counter("hdc_serve_completed_total"),
		shedQueueFull:    reg.Counter(`hdc_serve_shed_total{cause="queue_full"}`),
		shedDraining:     reg.Counter(`hdc_serve_shed_total{cause="draining"}`),
		shedTenantQuota:  reg.Counter(`hdc_serve_shed_total{cause="tenant_quota"}`),
		deadlineExceeded: reg.Counter("hdc_serve_deadline_exceeded_total"),
		cancelled:        reg.Counter("hdc_serve_cancelled_total"),
		drainForced:      reg.Counter("hdc_serve_drain_forced_total"),
		failed:           reg.Counter("hdc_serve_failed_total"),
		hostFallback:     reg.Counter("hdc_serve_host_fallback_total"),
		batchInvokes:     reg.Counter("hdc_serve_batch_invokes_total"),
		batchRows:        reg.Counter("hdc_serve_batch_rows_total"),
		queueDepth:       reg.Gauge("hdc_serve_queue_depth"),
		queueDepthMax:    reg.Gauge("hdc_serve_queue_depth_max"),
		batchRowsMax:     reg.Gauge("hdc_serve_batch_rows_max"),
		latency:          reg.Histogram("hdc_serve_latency_seconds"),
		queueWait:        reg.Histogram("hdc_serve_queue_wait_seconds"),
		perSample:        reg.Histogram("hdc_serve_per_sample_sim_seconds"),
	}
}

// counters materializes the report's counter block from the live handles.
// At quiescence the values are exact; mid-serve they may trail in-flight
// updates by a few atomic writes, like any registry snapshot.
func (m *serveMetrics) counters() counters {
	return counters{
		Submitted:        int(m.submitted.Value()),
		Admitted:         int(m.admitted.Value()),
		Completed:        int(m.completed.Value()),
		ShedQueueFull:    int(m.shedQueueFull.Value()),
		ShedDraining:     int(m.shedDraining.Value()),
		ShedTenantQuota:  int(m.shedTenantQuota.Value()),
		DeadlineExceeded: int(m.deadlineExceeded.Value()),
		Cancelled:        int(m.cancelled.Value()),
		DrainForced:      int(m.drainForced.Value()),
		Failed:           int(m.failed.Value()),
		HostFallback:     int(m.hostFallback.Value()),
		MaxQueueDepth:    int(m.queueDepthMax.Value()),
		BatchInvokes:     int(m.batchInvokes.Value()),
		BatchRows:        int(m.batchRows.Value()),
		MaxBatchRows:     int(m.batchRowsMax.Value()),
		Latency:          m.latency.Snapshot(),
		QueueWait:        m.queueWait.Snapshot(),
		PerSample:        m.perSample.Snapshot(),
	}
}
