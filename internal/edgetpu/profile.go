package edgetpu

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hdcedge/internal/tflite"
)

// OpTrace records one operator execution inside an Invoke, in the spirit
// of the Edge TPU profiler's per-op breakdown.
type OpTrace struct {
	Op        int
	Code      tflite.OpCode
	Placement Placement
	Cycles    uint64        // accelerator cycles (TPU-placed ops)
	HostTime  time.Duration // host cost (CPU-placed ops)
	MACs      uint64
}

// Profiler accumulates traces across invocations of one device.
type Profiler struct {
	Invocations int
	Ops         map[int]*OpTrace // keyed by operator index, summed
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{Ops: map[int]*OpTrace{}}
}

// record folds one invocation's traces in.
func (p *Profiler) record(traces []OpTrace) {
	p.Invocations++
	for _, tr := range traces {
		agg, ok := p.Ops[tr.Op]
		if !ok {
			cp := tr
			p.Ops[tr.Op] = &cp
			continue
		}
		agg.Cycles += tr.Cycles
		agg.HostTime += tr.HostTime
		agg.MACs += tr.MACs
	}
}

// Report renders the aggregated per-op profile, hottest first.
func (p *Profiler) Report(cfg Config) string {
	var rows []*OpTrace
	for _, tr := range p.Ops {
		rows = append(rows, tr)
	}
	sort.Slice(rows, func(a, b int) bool {
		ta := cfg.cyclesToTime(rows[a].Cycles) + rows[a].HostTime
		tb := cfg.cyclesToTime(rows[b].Cycles) + rows[b].HostTime
		return ta > tb
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "Profile over %d invocations:\n", p.Invocations)
	var totalTime time.Duration
	for _, tr := range rows {
		totalTime += cfg.cyclesToTime(tr.Cycles) + tr.HostTime
	}
	for _, tr := range rows {
		t := cfg.cyclesToTime(tr.Cycles) + tr.HostTime
		pct := 0.0
		if totalTime > 0 {
			pct = 100 * float64(t) / float64(totalTime)
		}
		fmt.Fprintf(&sb, "  op%-3d %-16v %-4v %10v %5.1f%%  %12d MACs\n",
			tr.Op, tr.Code, tr.Placement, t.Round(time.Microsecond), pct, tr.MACs)
	}
	return sb.String()
}

// InvokeProfiled executes the loaded model like Invoke and additionally
// returns the per-op trace of this invocation. An attached profiler records
// it, as it records every executed invoke.
func (d *Device) InvokeProfiled() (Timing, []OpTrace, error) {
	t, traces, err := d.run(true, true, 0)
	if err != nil {
		return t, nil, err
	}
	return t, traces, nil
}

// AttachProfiler starts accumulating per-op traces from every executed
// invoke of the device (Invoke, InvokeBatch and InvokeProfiled alike;
// estimates are not recorded); it returns the profiler for reporting.
func (d *Device) AttachProfiler() *Profiler {
	d.profiler = NewProfiler()
	return d.profiler
}
