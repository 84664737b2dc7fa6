package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

// tally accumulates a client's requests. Only raw latencies are kept per
// request, eight bytes each, so the harness's own footprint barely moves
// peak RSS however many requests a run completes; everything else is
// counted as it arrives.
type tally struct {
	sent, failed int
	lat          []time.Duration // Submit → return of each completed request
	correct      int             // completed with the true label
	byClass      map[string]int  // completed, by class of the serving worker
	mismatch     map[string]int  // completed but unlike the reference, by class
	sim          time.Duration   // Σ simulated invoke time per occupied row
	swap         time.Duration   // Σ Result.Swap
	rebinds      float64         // Σ 1/batch over requests billed a re-setup
	badSpans     int             // traced requests whose spans do not add up

	// Traced runs only: Submit → first Fill, first Fill → Consume, and
	// Consume → return of each completed request.
	queue, invoke, settle []time.Duration
}

func newTally() *tally {
	return &tally{byClass: map[string]int{}, mismatch: map[string]int{}}
}

func (t *tally) merge(o *tally) {
	t.sent += o.sent
	t.failed += o.failed
	t.lat = append(t.lat, o.lat...)
	t.correct += o.correct
	for k, v := range o.byClass {
		t.byClass[k] += v
	}
	for k, v := range o.mismatch {
		t.mismatch[k] += v
	}
	t.sim += o.sim
	t.swap += o.swap
	t.rebinds += o.rebinds
	t.badSpans += o.badSpans
	t.queue = append(t.queue, o.queue...)
	t.invoke = append(t.invoke, o.invoke...)
	t.settle = append(t.settle, o.settle...)
}

// loadGen drives a server closed-loop: each of clients goroutines submits
// its next request only after the previous one returned, unpaced, so the
// server always holds clients requests.
type loadGen struct {
	srv     *serve.Server
	clients int
	x       []float32 // held-out rows, flat [rows × n]
	n       int
	labels  []int // true class per held-out row
	ref     []int // expected answer per held-out row; nil checks none
	order   []int
	traced  bool
	// onConsume, when set, runs inside request i's Consume callback.
	onConsume func(i, row int)
}

// run submits requests until deadline (or, when limit > 0, until limit
// requests were issued) and returns their tally.
func (g *loadGen) run(deadline time.Time, limit int) *tally {
	var next atomic.Int64
	per := make([]*tally, g.clients)
	var wg sync.WaitGroup
	for c := range per {
		per[c] = newTally()
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (limit == 0 && !time.Now().Before(deadline)) {
					return
				}
				g.one(i, t)
			}
		}(per[c])
	}
	wg.Wait()
	all := newTally()
	for _, t := range per {
		all.merge(t)
	}
	return all
}

// one submits request i, waits for it and counts it into t. Fill and
// Consume run on the serving worker; Submit's return orders their writes
// before the reads below.
func (g *loadGen) one(i int, t *tally) {
	row := g.order[i%len(g.order)]
	feat := g.x[row*g.n : (row+1)*g.n]
	pred := -1
	var filled, consumed time.Time
	req := serve.Request{
		Fill: func(in *tensor.Tensor) {
			if g.traced && filled.IsZero() {
				filled = time.Now()
			}
			copy(in.F32, feat)
		},
		Consume: func(out *tensor.Tensor) {
			if g.traced {
				consumed = time.Now()
			}
			pred = int(out.I32[0])
			if g.onConsume != nil {
				g.onConsume(i, row)
			}
		},
	}
	t0 := time.Now()
	res, err := g.srv.Submit(context.Background(), req)
	t1 := time.Now()
	t.sent++
	if err != nil {
		t.failed++
		return
	}
	lat := t1.Sub(t0)
	t.lat = append(t.lat, lat)
	t.byClass[res.Backend]++
	if pred == g.labels[row] {
		t.correct++
	}
	if g.ref != nil && pred != g.ref[row] {
		t.mismatch[res.Backend]++
	}
	t.sim += res.Timing.Total() / time.Duration(res.BatchSize)
	t.swap += res.Swap
	if res.Swap > 0 {
		t.rebinds += 1 / float64(res.BatchSize)
	}
	if g.traced {
		q, inv, st := filled.Sub(t0), consumed.Sub(filled), t1.Sub(consumed)
		if q < 0 || inv < 0 || st < 0 || q+inv+st != lat || res.Latency > lat {
			t.badSpans++
		}
		t.queue, t.invoke, t.settle = append(t.queue, q), append(t.invoke, inv), append(t.settle, st)
	}
}

// window is one timed stretch of closed-loop serving.
type window struct {
	t       *tally
	elapsed time.Duration
	mem     memDelta
}

// memDelta is the Go runtime's allocation and GC activity over a window.
type memDelta struct {
	mallocs, gcs uint64
	gcPause      time.Duration
}

func (d memDelta) plus(o memDelta) memDelta {
	return memDelta{mallocs: d.mallocs + o.mallocs, gcs: d.gcs + o.gcs, gcPause: d.gcPause + o.gcPause}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memBetween(a, b runtime.MemStats) memDelta {
	return memDelta{mallocs: b.Mallocs - a.Mallocs, gcs: uint64(b.NumGC - a.NumGC),
		gcPause: time.Duration(b.PauseTotalNs - a.PauseTotalNs)}
}
