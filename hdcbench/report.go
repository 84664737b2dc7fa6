package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metric is one reported number as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics (in the order they were measured, for
// the human-readable table), its operation counts and every failed
// correctness check.
type report struct {
	workload  string
	order     []string
	metrics   map[string]metric
	samples   map[string]int
	attempted int
	failed    int
	problems  []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}, samples: map[string]int{}}
}

// add records a metric measured over samples observations.
func (r *report) add(name string, value float64, unit string, samples int) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.samples[name] = samples
}

// addDur records a duration in the given unit: "s", "ms" or "us" of wall
// time, or "sim_ms"/"sim_us" of simulated time.
func (r *report) addDur(name string, d time.Duration, unit string, samples int) {
	r.add(name, float64(d)/float64(unitDur(unit)), unit, samples)
}

// addPercentiles records the nearest-rank p50 and p99 of raw samples
// under the given names (an empty name skips that percentile), failing a
// check when a percentile lacks minBeyond samples above it.
func (r *report) addPercentiles(p50Name, p99Name string, samples []time.Duration, unit string) {
	vals := durations(samples, unitDur(unit))
	for _, pq := range []struct {
		name string
		q    float64
	}{{p50Name, 0.50}, {p99Name, 0.99}} {
		if pq.name == "" {
			continue
		}
		v, _, err := percentile(vals, pq.q)
		r.check(err == nil, "%s: %v", pq.name, err)
		r.add(pq.name, v, unit, len(vals))
	}
}

func unitDur(unit string) time.Duration {
	switch unit {
	case "s":
		return time.Second
	case "ms", "sim_ms":
		return time.Millisecond
	case "us", "sim_us":
		return time.Microsecond
	}
	panic("unknown duration unit " + unit)
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// addPeakRSS records this process's peak resident set size.
func (r *report) addPeakRSS() {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		r.check(false, "peak_rss_mb: %v", err)
		return
	}
	defer f.Close()
	mb, err := readVmHWM(f)
	r.check(err == nil, "peak_rss_mb: %v", err)
	r.add("peak_rss_mb", mb, "MB", 1)
}

// write prints the table (name, value, unit, sample count), every failed
// check, and the result line last.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "workload %s (GOMAXPROCS=%d): attempted %d, failed %d\n",
		r.workload, runtime.GOMAXPROCS(0), r.attempted, r.failed)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-40s %16.6g %-8s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func (r *report) result() result {
	return result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}
