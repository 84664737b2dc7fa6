// Package conformance is the executable contract of backend.Backend: a
// reusable test suite that every backend implementation must pass. It
// checks the properties the layers above the seam lean on — determinism,
// row-prefix (batch ≡ sequential) equivalence, full-batch aliasing, and
// reset idempotence. Cancellation is the resilient runner's contract and is
// tested there (internal/pipeline); estimate-vs-actual timing is the
// simulated device's (internal/edgetpu).
//
// Usage, from a backend's test package:
//
//	conformance.Run(t, func() (backend.Backend, error) {
//	    return tpu.New(cfg, cm, edgetpu.FaultPlan{})
//	})
//
// The factory must return a fresh, identically-configured, fault-free
// instance on every call; several properties compare independently
// constructed instances against each other.
package conformance

import (
	"testing"

	"hdcedge/internal/backend"
	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// Factory builds a fresh, identically-configured, fault-free backend
// instance. Each call must be independent of every prior call.
type Factory func() (backend.Backend, error)

// Run executes the full conformance suite against factory-built instances.
func Run(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("determinism", func(t *testing.T) { testDeterminism(t, factory) })
	t.Run("row-prefix", func(t *testing.T) { testRowPrefix(t, factory) })
	t.Run("full-batch-alias", func(t *testing.T) { testFullBatchAlias(t, factory) })
	t.Run("reset", func(t *testing.T) { testReset(t, factory) })
}

// build constructs one instance or fails the test.
func build(t *testing.T, factory Factory) backend.Backend {
	t.Helper()
	b, err := factory()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if b.Caps().BatchCapacity < 1 {
		t.Fatalf("BatchCapacity %d < 1", b.Caps().BatchCapacity)
	}
	return b
}

// fillInput writes a deterministic seed-derived pattern into the backend's
// first input, whatever its dtype.
func fillInput(t *testing.T, b backend.Backend, seed uint64) {
	t.Helper()
	in := b.Input(0)
	r := rng.New(seed)
	switch {
	case in.F32 != nil:
		for i := range in.F32 {
			in.F32[i] = float32(r.Uint64()%512)/256 - 1
		}
	case in.I8 != nil:
		for i := range in.I8 {
			in.I8[i] = int8(r.Uint64() % 256)
		}
	case in.U8 != nil:
		for i := range in.U8 {
			in.U8[i] = uint8(r.Uint64() % 256)
		}
	case in.I32 != nil:
		for i := range in.I32 {
			in.I32[i] = int32(r.Uint64() % 1024)
		}
	default:
		t.Fatal("input tensor has no backing data")
	}
}

// values flattens the active buffer of a tensor into float64 for exact
// comparison (every supported dtype embeds losslessly).
func values(t *testing.T, x *tensor.Tensor) []float64 {
	t.Helper()
	switch {
	case x.F32 != nil:
		out := make([]float64, len(x.F32))
		for i, v := range x.F32 {
			out[i] = float64(v)
		}
		return out
	case x.I8 != nil:
		out := make([]float64, len(x.I8))
		for i, v := range x.I8 {
			out[i] = float64(v)
		}
		return out
	case x.U8 != nil:
		out := make([]float64, len(x.U8))
		for i, v := range x.U8 {
			out[i] = float64(v)
		}
		return out
	case x.I32 != nil:
		out := make([]float64, len(x.I32))
		for i, v := range x.I32 {
			out[i] = float64(v)
		}
		return out
	}
	t.Fatal("output tensor has no backing data")
	return nil
}

// equal compares two flattened buffers exactly.
func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// invoke fills with seed and runs one full invoke, returning timing and a
// snapshot of output 0.
func invoke(t *testing.T, b backend.Backend, seed uint64) (backend.Timing, []float64) {
	t.Helper()
	fillInput(t, b, seed)
	tm, err := b.InvokeBatch(0)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	return tm, values(t, b.Output(0))
}

// testDeterminism: identical construction + identical inputs must produce
// identical outputs and identical Timing — invoke after invoke on one
// instance, and across independently built instances.
func testDeterminism(t *testing.T, factory Factory) {
	a := build(t, factory)
	t1, o1 := invoke(t, a, 7)
	t2, o2 := invoke(t, a, 7)
	if t1 != t2 {
		t.Fatalf("repeat invoke timing drifted: %+v then %+v", t1, t2)
	}
	if !equal(o1, o2) {
		t.Fatal("repeat invoke output drifted")
	}
	b := build(t, factory)
	t3, o3 := invoke(t, b, 7)
	if t1 != t3 {
		t.Fatalf("sibling instance timing differs: %+v vs %+v", t1, t3)
	}
	if !equal(o1, o3) {
		t.Fatal("sibling instance output differs")
	}
}

// testRowPrefix: on a row-sliceable model, InvokeBatch(k) must compute
// exactly the first k output rows of a full invoke over the same input.
func testRowPrefix(t *testing.T, factory Factory) {
	probe := build(t, factory)
	caps := probe.Caps()
	if !caps.RowSliceable || caps.BatchCapacity < 2 {
		t.Skipf("model not row-sliceable (caps %+v)", caps)
	}
	_, full := invoke(t, probe, 11)
	if len(full)%caps.BatchCapacity != 0 {
		t.Fatalf("output length %d not divisible by batch %d", len(full), caps.BatchCapacity)
	}
	rowElems := len(full) / caps.BatchCapacity
	ks := []int{1, caps.BatchCapacity / 2, caps.BatchCapacity - 1}
	for _, k := range ks {
		if k < 1 {
			continue
		}
		// Fresh instance per slice so stale rows from a previous invoke can
		// never mask a row the partial invoke failed to compute.
		b := build(t, factory)
		fillInput(t, b, 11)
		if _, err := b.InvokeBatch(k); err != nil {
			t.Fatalf("InvokeBatch(%d): %v", k, err)
		}
		got := values(t, b.Output(0))
		if !equal(got[:k*rowElems], full[:k*rowElems]) {
			t.Fatalf("InvokeBatch(%d) prefix differs from full invoke", k)
		}
	}
}

// testFullBatchAlias: rows <= 0 and rows >= BatchCapacity are full invokes,
// bit-identical to InvokeBatch(0) in both output and timing.
func testFullBatchAlias(t *testing.T, factory Factory) {
	a := build(t, factory)
	tFull, oFull := invoke(t, a, 13)
	for _, rows := range []int{0, -1, a.Caps().BatchCapacity, a.Caps().BatchCapacity + 5} {
		b := build(t, factory)
		fillInput(t, b, 13)
		tm, err := b.InvokeBatch(rows)
		if err != nil {
			t.Fatalf("InvokeBatch(%d): %v", rows, err)
		}
		if tm != tFull {
			t.Fatalf("InvokeBatch(%d) timing %+v != full invoke %+v", rows, tm, tFull)
		}
		if !equal(values(t, b.Output(0)), oFull) {
			t.Fatalf("InvokeBatch(%d) output differs from full invoke", rows)
		}
	}
}

// testReset: Reset must restore a freshly-loaded state — the next invoke is
// bit-identical to the pre-reset one.
func testReset(t *testing.T, factory Factory) {
	b := build(t, factory)
	want, wantOut := invoke(t, b, 9)
	if _, err := b.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	got, gotOut := invoke(t, b, 9)
	if got != want {
		t.Fatalf("post-reset timing %+v != pre-reset %+v", got, want)
	}
	if !equal(gotOut, wantOut) {
		t.Fatal("post-reset output differs")
	}
	if _, err := b.Reset(); err != nil {
		t.Fatalf("second Reset: %v", err)
	}
	if got2, _ := invoke(t, b, 9); got2 != want {
		t.Fatalf("reset not idempotent: %+v != %+v", got2, want)
	}
}
