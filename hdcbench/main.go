// Command hdcbench is the repository's end-to-end and per-layer benchmark:
// three workloads at the paper's d=10,000, each driving the layers' public
// Go APIs from one process, on two clocks — wall time on this host and the
// simulated Edge-TPU/host cost model.
//
//	ucihar-train       the Fig-5 co-design training flow on UCIHAR
//	pamap2-int8        closed-loop serving of the int8 classifier (tpu+cpu)
//	pamap2-bin-online  closed-loop bit-packed serving with online writes
//
// One run:
//
//	hdcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints a table of every metric (value, unit, sample count) and, last, one
// JSON line {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// each timed from outside around public calls. A failed correctness check
// exits 1.
//
// The latency tail (latency.p99_ms) is a per-layer metric: on a host whose
// cores are shared with other tenants, the p99 of a run moves with their
// load by more than any end-to-end bound can absorb, while the median
// holds.
//
// --workload all (or a comma-separated list) runs every workload named,
// each in its own process. --steady N
// runs the workloads alternately N times with seeds seed, seed+1, … and
// prints each end-to-end metric's median, quartiles and spread against the
// bound in BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hdcedge/internal/hdc"
)

const dim = hdc.DefaultDim

// env is one invocation's settings.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// workloads, in the order --workload all and --steady run them.
var workloads = []struct {
	name string
	run  func(env) *report
}{
	{"ucihar-train", runUCIHARTrain},
	{"pamap2-int8", func(e env) *report { return runServing(e, false) }},
	{"pamap2-bin-online", func(e env) *report { return runServing(e, true) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hdcbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, a comma-separated list, or all")
	seed := fs.Uint64("seed", 1, "seed for the split, training, request order and feedback")
	seconds := fs.Int("seconds", 30, "measuring time per run, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	steady := fs.Int("steady", 0, "rounds of the steadiness mode (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *steady < 0 {
		fmt.Fprintln(os.Stderr, "hdcbench: bad arguments; see the package documentation")
		return 2
	}
	// One P per CPU the process may run on (nproc), stated explicitly:
	// serving uses two workers and the kernels parallelize across Ps.
	runtime.GOMAXPROCS(runtime.NumCPU())
	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	var names []string
	for _, name := range strings.Split(*workload, ",") {
		known := false
		for _, w := range workloads {
			if name == "all" || name == w.name {
				names, known = append(names, w.name), true
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "hdcbench: unknown workload %q\n", name)
			return 2
		}
	}
	switch {
	case *steady > 0:
		return runSteady(stdout, names, e, *steady)
	case len(names) > 1:
		return runAll(stdout, names, e)
	}
	for _, w := range workloads {
		if w.name == names[0] {
			rep := w.run(e)
			if err := rep.write(stdout); err != nil {
				fmt.Fprintln(os.Stderr, "hdcbench:", err)
				return 1
			}
			if len(rep.problems) > 0 {
				return 1
			}
		}
	}
	return 0
}

// child runs one workload in its own process, passing its output through,
// and returns its parsed result line.
func child(stdout io.Writer, name string, e env) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := 0
	if e.trace {
		trace = 1
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(e.seed, 10),
		"--seconds", strconv.Itoa(int(e.seconds/time.Second)), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: no result line (%v)", name, runErr)
	}
	if runErr != nil && res.Correct {
		return res, fmt.Errorf("%s: %v", name, runErr)
	}
	return res, nil
}

// runAll runs each workload in its own process and prints a combined result
// line with metrics named <workload>/<metric>.
func runAll(stdout io.Writer, names []string, e env) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := child(stdout, name, e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hdcbench:", err)
			all.Correct = false
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	if e.trace {
		for _, name := range names {
			if m, ok := all.Metrics[name+"/trace.overhead_pct"]; ok {
				fmt.Fprintf(stdout, "tracing overhead %-18s %+.2f%%\n", name, m.Value)
			}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs the workloads alternately rounds times, seed+r in round r,
// and reports each end-to-end metric's median, quartiles and interquartile
// spread as a share of the median against the metric's bound (setup_s's
// spread is reported but not judged). It fails if a run fails or a judged
// spread exceeds its bound.
func runSteady(stdout io.Writer, names []string, e env, rounds int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench: steadiness mode reads BENCHMARK.json from the working directory:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench: BENCHMARK.json:", err)
		return 2
	}
	if rounds < 2 {
		fmt.Fprintln(os.Stderr, "hdcbench: --steady needs at least 2 rounds")
		return 2
	}
	values := map[string]map[string][]float64{}
	ok := true
	for r := 0; r < rounds; r++ {
		for i := range names {
			// Rotate the order each round so no workload always runs first.
			name := names[(i+r)%len(names)]
			re := e
			re.seed, re.trace = e.seed+uint64(r), false
			res, err := child(io.Discard, name, re)
			if err != nil || !res.Correct {
				fmt.Fprintf(stdout, "round %d %s: FAILED (%v)\n", r, name, err)
				ok = false
				continue
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				values[name][k] = append(values[name][k], m.Value)
			}
			fmt.Fprintf(stdout, "round %d %s: done\n", r, name)
		}
	}
	fmt.Fprintf(stdout, "%-18s %-18s %12s %12s %12s %8s %6s %-12s %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict", "values by round")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			vs := values[name][m.Name]
			if len(vs) < 2 {
				fmt.Fprintf(stdout, "%-18s %-18s missing\n", name, m.Name)
				ok = false
				continue
			}
			q1, q2, q3, _ := quartiles(vs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "(not judged)"
			case spread > m.Bound:
				verdict, ok = "OVER BOUND", false
			case spread > m.Bound/3:
				verdict = "over bound/3"
			}
			fmt.Fprintf(stdout, "%-18s %-18s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %-12s %s\n",
				name, m.Name, q2, q1, q3, 100*spread, 100*m.Bound, verdict, strings.Trim(fmt.Sprintf("%.4g", vs), "[]"))
		}
	}
	if !ok {
		return 1
	}
	return 0
}
