// Package backend defines the execution-backend seam of the co-design
// runtime: one interface over "something that can invoke the compiled
// model and price the invocation", implemented by the Edge TPU simulator
// (internal/backend/tpu) and the host CPU interpreter
// (internal/backend/hostcpu).
//
// The paper's whole premise is a split across heterogeneous silicon —
// encoding on an Edge-TPU-class accelerator, class-vector updates on the
// host CPU — so the host is a peer execution engine, not a buried fallback
// path. Everything above this seam (the resilient runner, the serving
// fleet, the experiments) speaks Backend and never names a concrete
// device type.
//
// Contract highlights (enforced by internal/backend/conformance):
//
//   - Determinism: identical construction + identical inputs produce
//     identical outputs and identical Timing, invoke after invoke.
//   - Row-prefix equivalence: on a row-sliceable model, InvokeBatch(k)
//     computes exactly the first k output rows of a full invoke.
//
// Cancellation and estimation live one layer up and one layer down: the
// resilient runner (internal/pipeline) checks the context before it
// dispatches, and the simulated device (edgetpu.Device.EstimateInvokeBatch)
// prices an invoke without executing it.
package backend

import (
	"time"

	"hdcedge/internal/edgetpu"
	"hdcedge/internal/tensor"
)

// Timing is the per-invocation phase breakdown shared by every backend.
// It aliases the simulator's type so existing reports, results and tests
// keep their exact shape; a CPU backend prices its compute into the
// HostFallback phase.
type Timing = edgetpu.Timing

// Caps describes what a backend instance can do, so callers can validate
// configuration (batch coalescing, row slicing) without knowing the
// concrete type.
type Caps struct {
	// BatchCapacity is the number of sample rows one full invocation
	// processes — the leading dimension of the model's first input.
	BatchCapacity int

	// RowSliceable reports whether partial-batch invokes (InvokeBatch
	// with 0 < rows < BatchCapacity) are supported: every activation of
	// the loaded model must be batch-leading.
	RowSliceable bool
}

// Backend is one execution engine holding one loaded model. Implementations
// are not safe for concurrent use; drive each instance from one goroutine,
// like the devices they wrap.
type Backend interface {
	// Name identifies the backend class for reports and fleet grouping
	// (e.g. "tpu", "cpu"). Instances of the same class share a name.
	Name() string

	// Caps returns the capability flags of the loaded model on this
	// backend.
	Caps() Caps

	// Input returns the i-th model input tensor; callers populate it
	// before InvokeBatch.
	Input(i int) *tensor.Tensor

	// Output returns the i-th model output tensor after a successful
	// invoke.
	Output(i int) *tensor.Tensor

	// InvokeBatch executes the loaded model on the first rows sample rows
	// and returns the phase timing. rows <= 0 or rows >= BatchCapacity is a
	// full invoke; anything between requires RowSliceable.
	InvokeBatch(rows int) (Timing, error)

	// Reset restores the backend to a freshly-loaded state (re-uploading
	// the model after a reset-class fault, rebuilding interpreter state)
	// and returns the setup cost the reset paid.
	Reset() (time.Duration, error)
}

// IsRetryable reports whether an invoke error is transient: the same
// invoke may succeed if attempted again (possibly after a Reset).
func IsRetryable(err error) bool { return edgetpu.IsRetryable(err) }

// NeedsReload reports whether an invoke error dropped the loaded model, so
// the backend must Reset before the next attempt.
func NeedsReload(err error) bool { return edgetpu.NeedsReload(err) }
