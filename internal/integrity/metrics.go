package integrity

import "hdcedge/internal/metrics"

// checkerMetrics holds every count a Checker keeps; Report is a view of
// them. The handles are private until Instrument resolves them in a
// registry.
type checkerMetrics struct {
	scrubs         *metrics.Counter
	corruptions    *metrics.Counter
	canaryRuns     *metrics.Counter
	canaryFailures *metrics.Counter
	incidents      *metrics.Counter
	repairs        [4]*metrics.Counter // indexed by Action, quarantine included
	repairSimNs    *metrics.Counter    // simulated cost of every rung, nanoseconds
	quarantined    *metrics.Gauge
	ttr            *metrics.LiveHistogram // its count is the repaired incidents
}

// newCheckerMetrics resolves a checker's handles in reg. labels is an
// inline Prometheus label set appended to every series; the repair counters
// additionally carry an action label.
func newCheckerMetrics(reg *metrics.Registry, labels string) checkerMetrics {
	suffix, tail := "", "}"
	if labels != "" {
		suffix, tail = "{"+labels+"}", ","+labels+"}"
	}
	m := checkerMetrics{
		scrubs:         reg.Counter("hdc_integrity_scrubs_total" + suffix),
		corruptions:    reg.Counter("hdc_integrity_corruptions_total" + suffix),
		canaryRuns:     reg.Counter("hdc_integrity_canary_runs_total" + suffix),
		canaryFailures: reg.Counter("hdc_integrity_canary_failures_total" + suffix),
		incidents:      reg.Counter("hdc_integrity_incidents_total" + suffix),
		repairSimNs:    reg.Counter("hdc_integrity_repair_sim_ns_total" + suffix),
		quarantined:    reg.Gauge("hdc_integrity_quarantined" + suffix),
		ttr:            reg.Histogram("hdc_integrity_time_to_repair_seconds" + suffix),
	}
	for a := range m.repairs {
		m.repairs[a] = reg.Counter(`hdc_integrity_repairs_total{action="` + Action(a).String() + `"` + tail)
	}
	return m
}

// Instrument moves the checker's counts into reg under labels (e.g.
// `worker="1",backend="tpu"`). Call before the first Maintain. A checker
// instrumented under the labels of an earlier checker continues its
// counts, and Report then covers both.
func (c *Checker) Instrument(reg *metrics.Registry, labels string) {
	c.met = newCheckerMetrics(reg, labels)
	// A fresh checker is in service, whatever an earlier one left behind.
	c.met.quarantined.Set(0)
}
