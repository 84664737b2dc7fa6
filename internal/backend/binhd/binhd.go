// Package binhd is the bit-packed binary HDC execution backend: the
// bipolar deployment form of the paper's classifier served as a
// first-class peer of the simulated Edge TPU and the host interpreter.
// Hypervectors pack 64 dimensions per uint64 word; similarity is Hamming
// agreement via XOR+POPCNT. The serving path is a single fused kernel per
// invoke — float random-projection encode, sign-threshold, bit-pack, then
// the packed similarity scan — with no intermediate float class scores
// and no tanh pass (sign(tanh(z)) == sign(z), so the nonlinearity cannot
// change a packed bit and is skipped outright).
//
// Against the int8 graph the arithmetic drops from (n+k)·d MACs per
// sample to n·d float MACs plus k·⌈d/64⌉ word ops: the class-similarity
// GEMM collapses by ~64× and the model shrinks ~8×. Simulated cost is
// priced by the cpuarch popcount roofline (PopcountGEMMTime), so the
// speedup is visible in both wall-clock and simulated time. See
// docs/backends.md.
package binhd

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"hdcedge/internal/backend"
	"hdcedge/internal/cpuarch"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/tensor"
)

// Name is the backend class name binary-HDC instances report ("bin" in a
// fleet spec).
const Name = "bin"

// encodeRowsPerBlock is how many sample rows one fused-kernel block
// processes: the kernel is unrolled 2 rows × 4 features, and blocks of 8
// rows keep ParallelFor chunks big enough to amortize scheduling.
const encodeRowsPerBlock = 8

// scratchPool recycles the per-block float accumulators of the fused
// encode kernel, so steady-state invokes allocate nothing. Entries are
// *[]float32 (a pointer, so Put does not allocate) sized max(2·d, need)
// on first use and grown monotonically.
var scratchPool = sync.Pool{New: func() any { s := make([]float32, 0); return &s }}

// Backend serves one BipolarModel. Not safe for concurrent use: the
// input/output tensors and the packed query buffer are reused across
// invokes, exactly like the interpreter-backed peers.
type Backend struct {
	host     cpuarch.Spec
	bm       *hdc.BipolarModel
	capacity int
	n, d, k  int
	words    int

	in     *tensor.Tensor // [capacity, n] float32 features
	preds  *tensor.Tensor // [capacity] int32 argmax class per row
	scores *tensor.Tensor // [capacity, k] int32 Hamming agreement per class

	packed     []uint64 // capacity × words packed query hypervectors
	classWords []uint64 // k × words class hypervectors, flattened contiguous

	times map[int]time.Duration // rows (0 = full batch) → priced invoke

	// runRows is the occupied row count of the invoke in flight; the
	// kernel closures below read it so they can be built once in New and
	// never allocated again on the invoke path.
	runRows    int
	encodeFn   func(lo, hi int)
	classifyFn func(lo, hi int)

	// Live telemetry handles; nil until Instrument is called.
	liveInvokes *metrics.Counter
	liveSim     *metrics.LiveHistogram
}

// New builds a backend serving bm at the given batch capacity, priced by
// host. The model is referenced, not copied; callers must not mutate it
// while the backend lives.
func New(host cpuarch.Spec, bm *hdc.BipolarModel, capacity int) (*Backend, error) {
	if bm == nil || bm.Encoder == nil || bm.Encoder.Base == nil {
		return nil, fmt.Errorf("binhd: nil bipolar model or encoder")
	}
	if capacity < 1 {
		return nil, fmt.Errorf("binhd: batch capacity %d < 1", capacity)
	}
	n, d := bm.Encoder.Features(), bm.Dim
	if bm.Encoder.Base.Shape[1] != d {
		return nil, fmt.Errorf("binhd: encoder emits %d dims, model has %d", bm.Encoder.Base.Shape[1], d)
	}
	k := bm.K()
	if k < 2 {
		return nil, fmt.Errorf("binhd: %d classes, need at least 2", k)
	}
	words := hdc.WordsPerVector(d)
	b := &Backend{
		host: host, bm: bm, capacity: capacity,
		n: n, d: d, k: k, words: words,
		in:         tensor.New(tensor.Float32, capacity, n),
		preds:      tensor.New(tensor.Int32, capacity),
		scores:     tensor.New(tensor.Int32, capacity, k),
		packed:     make([]uint64, capacity*words),
		classWords: make([]uint64, 0, k*words),
		times:      make(map[int]time.Duration),
	}
	for c := 0; c < k; c++ {
		if len(bm.Words[c]) != words {
			return nil, fmt.Errorf("binhd: class %d packs %d words, want %d", c, len(bm.Words[c]), words)
		}
		b.classWords = append(b.classWords, bm.Words[c]...)
	}
	b.encodeFn = b.encodeBlocks
	b.classifyFn = b.classifyRows
	return b, nil
}

// Name implements backend.Backend.
func (b *Backend) Name() string { return Name }

// Caps implements backend.Backend: row-sliceable at the built capacity.
func (b *Backend) Caps() backend.Caps {
	return backend.Caps{BatchCapacity: b.capacity, RowSliceable: true}
}

// Model returns the served bipolar model.
func (b *Backend) Model() *hdc.BipolarModel { return b.bm }

// Instrument streams per-invoke telemetry into reg, mirroring the other
// backends: an attempt counter and a histogram of simulated invoke time.
func (b *Backend) Instrument(reg *metrics.Registry, labels string) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	b.liveInvokes = reg.Counter("hdc_backend_invokes_total" + suffix)
	b.liveSim = reg.Histogram("hdc_backend_invoke_sim_seconds" + suffix)
}

// observe records one invoke attempt in the live telemetry (when armed)
// and passes the result through unchanged.
func (b *Backend) observe(t backend.Timing, err error) (backend.Timing, error) {
	if b.liveInvokes != nil {
		b.liveInvokes.Inc()
		if err == nil {
			b.liveSim.Observe(t.Total())
		}
	}
	return t, err
}

// Input implements backend.Backend.
func (b *Backend) Input(i int) *tensor.Tensor {
	if i != 0 {
		panic(fmt.Sprintf("binhd: input %d of 1", i))
	}
	return b.in
}

// Output implements backend.Backend: output 0 is the [batch] int32
// predicted class per row, output 1 the [batch, k] int32 Hamming
// agreement scores — the same argmax-plus-scores contract as the compiled
// inference graph, so serving-layer row scatter/gather works unchanged.
func (b *Backend) Output(i int) *tensor.Tensor {
	switch i {
	case 0:
		return b.preds
	case 1:
		return b.scores
	}
	panic(fmt.Sprintf("binhd: output %d of 2", i))
}

// normRows folds out-of-range row counts onto the full batch, so full
// invokes share one cache entry and exactly the unscaled arithmetic.
func (b *Backend) normRows(rows int) int {
	if rows <= 0 || rows >= b.capacity {
		return 0
	}
	return rows
}

// price returns the cached simulated cost of one invoke at rows occupied
// sample rows (0 = full batch): the fused encode GEMM with its in-pass
// sign-pack, the popcount similarity, and the argmax scan.
func (b *Backend) price(rows int) time.Duration {
	t, ok := b.times[rows]
	if !ok {
		eff := rows
		if eff == 0 {
			eff = b.capacity
		}
		t = b.host.GEMMTime(eff, b.n, b.d) +
			b.host.SignPackTime(eff*b.d) +
			b.host.PopcountGEMMTime(eff, b.d, b.k) +
			b.host.ArgMaxTime(eff*b.k)
		b.times[rows] = t
	}
	return t
}

// InvokeBatch implements backend.Backend: the fused kernel runs on the
// occupied row prefix and the invoke is priced into the HostFallback
// phase (this backend *is* host silicon).
func (b *Backend) InvokeBatch(rows int) (backend.Timing, error) {
	rows = b.normRows(rows)
	eff := rows
	if eff == 0 {
		eff = b.capacity
	}
	b.run(eff)
	return b.observe(backend.Timing{HostFallback: b.price(rows)}, nil)
}

// Reset implements backend.Backend. The packed class words are immutable
// and the scratch state carries nothing between invokes, so a reset has
// nothing to rebuild; the pricing cache survives (the model is unchanged).
func (b *Backend) Reset() (time.Duration, error) { return 0, nil }

// run executes the fused kernel over the first rows sample rows:
// encode+pack in row blocks, then the packed classify, both parallelized
// over disjoint row ranges (deterministic regardless of worker count; on
// a single-P host ParallelFor runs inline). The worker bodies are the
// closures built once in New, so the invoke path itself allocates nothing.
func (b *Backend) run(rows int) {
	b.runRows = rows
	blocks := (rows + encodeRowsPerBlock - 1) / encodeRowsPerBlock
	tensor.ParallelFor(blocks, 1, b.encodeFn)
	tensor.ParallelFor(rows, encodeRowsPerBlock, b.classifyFn)
}

// encodeBlocks is the encode-phase worker body: each unit is one block of
// encodeRowsPerBlock sample rows, clamped to the in-flight row count. Each
// worker checks out its own scratch pair from the pool, so concurrent
// blocks never share accumulators.
func (b *Backend) encodeBlocks(lo, hi int) {
	sp := scratchPool.Get().(*[]float32)
	scratch := *sp
	if cap(scratch) < 2*b.d {
		scratch = make([]float32, 2*b.d)
	}
	scratch = scratch[:2*b.d]
	for blk := lo; blk < hi; blk++ {
		r0 := blk * encodeRowsPerBlock
		r1 := r0 + encodeRowsPerBlock
		if r1 > b.runRows {
			r1 = b.runRows
		}
		b.encodePackRows(r0, r1, scratch)
	}
	*sp = scratch
	scratchPool.Put(sp)
}

// encodePackRows fuses float encode → sign-threshold → bit-pack for rows
// [r0, r1): C = X·B computed two rows × four features at a time into the
// scratch accumulators (the first feature initializes, so there is no
// zeroing pass), each finished row packed straight into b.packed. An odd
// last row takes the same four-feature steps alone, so every row sums its
// features in one order whichever path computes it. The
// sign of the optional tanh nonlinearity equals the sign of its argument,
// so no transcendental pass runs and the packed bits still match
// BipolarModel.Predict exactly.
func (b *Backend) encodePackRows(r0, r1 int, scratch []float32) {
	n, d, words := b.n, b.d, b.words
	base := b.bm.Encoder.Base.F32
	x := b.in.F32
	r := r0
	for ; r+1 < r1; r += 2 {
		c0 := scratch[:d]
		c1 := scratch[d : 2*d][:d]
		x0 := x[r*n : (r+1)*n]
		x1 := x[(r+1)*n : (r+2)*n]

		a0, a1 := x0[0], x1[0]
		for j, bv := range base[:d] {
			c0[j] = a0 * bv
			c1[j] = a1 * bv
		}
		i := 1
		for ; i+3 < n; i += 4 {
			a00, a01, a02, a03 := x0[i], x0[i+1], x0[i+2], x0[i+3]
			a10, a11, a12, a13 := x1[i], x1[i+1], x1[i+2], x1[i+3]
			p0 := base[i*d : (i+1)*d][:d]
			p1 := base[(i+1)*d : (i+2)*d][:d]
			p2 := base[(i+2)*d : (i+3)*d][:d]
			p3 := base[(i+3)*d : (i+4)*d][:d]
			for j, bv0 := range p0 {
				bv1, bv2, bv3 := p1[j], p2[j], p3[j]
				c0[j] += a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
				c1[j] += a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			}
		}
		for ; i < n; i++ {
			av0, av1 := x0[i], x1[i]
			bi := base[i*d : (i+1)*d][:d]
			for j, bv := range bi {
				c0[j] += av0 * bv
				c1[j] += av1 * bv
			}
		}
		hdc.PackSignsInto(b.packed[r*words:(r+1)*words], c0)
		hdc.PackSignsInto(b.packed[(r+1)*words:(r+2)*words], c1)
	}
	for ; r < r1; r++ {
		c0 := scratch[:d]
		x0 := x[r*n : (r+1)*n]
		a0 := x0[0]
		for j, bv := range base[:d] {
			c0[j] = a0 * bv
		}
		i := 1
		for ; i+3 < n; i += 4 {
			a00, a01, a02, a03 := x0[i], x0[i+1], x0[i+2], x0[i+3]
			p0 := base[i*d : (i+1)*d][:d]
			p1 := base[(i+1)*d : (i+2)*d][:d]
			p2 := base[(i+2)*d : (i+3)*d][:d]
			p3 := base[(i+3)*d : (i+4)*d][:d]
			for j, bv0 := range p0 {
				c0[j] += a00*bv0 + a01*p1[j] + a02*p2[j] + a03*p3[j]
			}
		}
		for ; i < n; i++ {
			av := x0[i]
			bi := base[i*d : (i+1)*d][:d]
			for j, bv := range bi {
				c0[j] += av * bv
			}
		}
		hdc.PackSignsInto(b.packed[r*words:(r+1)*words], c0)
	}
}

// classifyRows scans rows [lo, hi) of the packed queries against every
// class hypervector: per pair, one XOR+POPCNT pass over the packed words
// (bits.OnesCount64 compiles to the POPCNT instruction). PackSignsInto
// cleared the tail-word high bits on both sides, so whole-word agreement
// counts a fixed 64·words − d phantom agreements per class — identical
// across classes, which leaves the argmax untouched; the reported scores
// subtract it to stay exact Hamming agreement over d dims.
func (b *Backend) classifyRows(lo, hi int) {
	words, k := b.words, b.k
	phantom := int32(64*words - b.d)
	for r := lo; r < hi; r++ {
		q := b.packed[r*words : (r+1)*words]
		scores := b.scores.I32[r*k : (r+1)*k]
		best, bestAgree := 0, int32(-1)
		for c := 0; c < k; c++ {
			cw := b.classWords[c*words : (c+1)*words][:len(q)]
			agree := 0
			for wi, qv := range q {
				agree += bits.OnesCount64(^(qv ^ cw[wi]))
			}
			a := int32(agree) - phantom
			scores[c] = a
			if a > bestAgree {
				best, bestAgree = c, a
			}
		}
		b.preds.I32[r] = int32(best)
	}
}
