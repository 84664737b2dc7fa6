package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRankAndTenBeyond(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // descending: percentile must sort a copy
	}
	orig := slices.Clone(vals)
	v, beyond, err := percentile(vals, 0.99)
	if err != nil || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v (beyond %d, err %v), want 990 with 10 beyond", v, beyond, err)
	}
	if v, _, err := percentile(vals, 0.5); err != nil || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v (err %v), want 500", v, err)
	}
	if !slices.Equal(vals, orig) {
		t.Fatal("percentile reordered its input")
	}
	// 999 samples leave only 9 above the p99: refused.
	if _, beyond, err := percentile(vals[:999], 0.99); err == nil || beyond != 9 {
		t.Fatalf("p99 of 999 samples: beyond %d, err %v; want a refusal with 9 beyond", beyond, err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples succeeded")
	}
	for _, c := range []struct {
		q    float64
		n    int
		want int
	}{{0.99, 1000, 990}, {0.99, 1100, 1089}, {0.5, 1, 1}, {0.5, 4, 2}, {1, 7, 7}, {0, 7, 1}} {
		if got := nearestRank(c.q, c.n); got != c.want {
			t.Errorf("nearestRank(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

// The cut points match Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2.0, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3.0, 4.5}},
	} {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Fatal("quartiles of one value succeeded")
	}
}

func TestGoodputCountsFailuresAsMisses(t *testing.T) {
	ms := time.Millisecond
	done := []time.Duration{1 * ms, 5 * ms, 10 * ms, 20 * ms}
	// Four completed (three within the limit, the limit itself included)
	// out of six attempted: the two failed or shed requests are misses.
	if got := goodput(done, 6, 10*ms); got != 0.5 {
		t.Fatalf("goodput = %v, want 0.5", got)
	}
	if got := goodput(done, 4, time.Second); got != 1 {
		t.Fatalf("goodput with every request in time = %v, want 1", got)
	}
	if got := goodput(nil, 0, ms); got != 0 {
		t.Fatalf("goodput of nothing attempted = %v, want 0", got)
	}

	// Client tallies merge into one: a failed request adds to sent but
	// no latency, so it stays a goodput miss after merging.
	a, b := newTally(), newTally()
	a.sent, a.lat, a.byClass["bin"] = 2, []time.Duration{ms, 3 * ms}, 2
	b.sent, b.failed, b.byClass["bin"] = 1, 1, 0
	all := newTally()
	all.merge(a)
	all.merge(b)
	if all.sent != 3 || all.failed != 1 || len(all.lat) != 2 || all.byClass["bin"] != 2 {
		t.Fatalf("merged tally %+v", all)
	}
	if got := goodput(all.lat, all.sent, 10*ms); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("goodput over merged tally = %v, want 2/3", got)
	}
}

func TestReadVmHWM(t *testing.T) {
	status := "Name:\thdcbench\nVmPeak:\t  200000 kB\nVmHWM:\t   12800 kB\nVmRSS:\t   10000 kB\n"
	mb, err := readVmHWM(strings.NewReader(status))
	if err != nil || mb != 12.5 {
		t.Fatalf("VmHWM = %v MiB (err %v), want 12.5", mb, err)
	}
	for _, bad := range []string{"Name:\tx\nVmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := readVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("readVmHWM(%q) succeeded", bad)
		}
	}
}

func TestSeedPlumbing(t *testing.T) {
	a, b, c := newStreams(7), newStreams(7), newStreams(8)
	if a != b {
		t.Fatal("the same seed gave different streams")
	}
	if a == c || a.order == c.order {
		t.Fatal("different seeds gave the same streams")
	}
	const rows = 2048
	oa, ob, oc := requestOrder(a, rows), requestOrder(b, rows), requestOrder(c, rows)
	if !slices.Equal(oa, ob) {
		t.Fatal("the same seed gave a different request order")
	}
	if slices.Equal(oa, oc) {
		t.Fatal("different seeds gave the same request order")
	}
	sorted := slices.Clone(oa)
	slices.Sort(sorted)
	if !slices.Equal(sorted, seq(rows)) {
		t.Fatal("request order is not a permutation of the held-out rows")
	}
	for i := 0; i < 100; i++ {
		if sendsFeedback(i, 8) != (i%8 == 0) {
			t.Fatalf("sendsFeedback(%d, 8) = %v", i, sendsFeedback(i, 8))
		}
	}
	fa, fb, fc := feedbackRows(oa, 8, 300), feedbackRows(ob, 8, 300), feedbackRows(oc, 8, 300)
	if !slices.Equal(fa, fb) || slices.Equal(fa, fc) {
		t.Fatal("feedback rows do not follow the seed")
	}
	// Feedback row j is the row request 8j sent, wrapping past the end.
	for j, row := range fa {
		if row != oa[(8*j)%rows] {
			t.Fatalf("feedback %d is row %d, want request %d's row %d", j, row, 8*j, oa[(8*j)%rows])
		}
	}

	tr1, te1, err := splitCatalog("PAMAP2", a, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	tr2, te2, _ := splitCatalog("PAMAP2", b, 100, 50)
	_, te3, _ := splitCatalog("PAMAP2", c, 100, 50)
	if !slices.Equal(tr1.X.F32, tr2.X.F32) || !slices.Equal(te1.Y, te2.Y) || !slices.Equal(te1.X.F32, te2.X.F32) {
		t.Fatal("the same seed gave a different split")
	}
	if slices.Equal(te1.X.F32, te3.X.F32) {
		t.Fatal("different seeds gave the same split")
	}
	if tr1.Samples() != 100 || te1.Samples() != 50 {
		t.Fatalf("split sizes %d/%d, want 100/50", tr1.Samples(), te1.Samples())
	}
}
