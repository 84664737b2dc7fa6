package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1,000 samples, so a single outlier cannot set it.
const minBeyond = 10

// nearestRank returns the 1-based nearest rank of quantile q in n samples,
// ceil(q·n) clamped to [1, n]. The small epsilon keeps q·n products that
// land on an integer (0.99·1000) from rounding up a rank.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank q-quantile (q ≥ 0.5) of samples and
// how many samples lie above it. It refuses a percentile with fewer than
// minBeyond samples above it. samples need not be sorted; it is not
// modified.
func percentile(samples []float64, q float64) (value float64, beyond int, err error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile p%g of no samples", 100*q)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	r := nearestRank(q, n)
	beyond = n - r
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("percentile p%g of %d samples has only %d beyond it (need %d)",
			100*q, n, beyond, minBeyond)
	}
	return sorted[r-1], beyond, nil
}

// durations converts durations to float64 values in unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// quartiles returns the three cut points dividing values into quarters by
// the "exclusive" method of Python's statistics.quantiles(values, n=4), so
// the steadiness report matches how the spread is judged elsewhere.
func quartiles(values []float64) (q1, q2, q3 float64, err error) {
	ld := len(values)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", ld)
	}
	data := slices.Clone(values)
	slices.Sort(data)
	var cuts [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		cuts[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cuts[0], cuts[1], cuts[2], nil
}

// goodput is the fraction of attempted requests that completed within
// limit. completed holds the latencies of successful requests only, so a
// failed or shed request counts as a miss by construction.
func goodput(completed []time.Duration, attempted int, limit time.Duration) float64 {
	if attempted == 0 {
		return 0
	}
	good := 0
	for _, l := range completed {
		if l <= limit {
			good++
		}
	}
	return float64(good) / float64(attempted)
}

// readVmHWM parses the peak resident set size (VmHWM) out of a
// /proc/<pid>/status stream, in MiB.
func readVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM value: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in status")
}

// median returns the middle value (mean of the middle two for even n).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDuration is median over durations.
func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(median(durations(ds, 1)))
}
