package pipeline

import (
	"testing"
	"time"

	"hdcedge/internal/edgetpu"
	"hdcedge/internal/metrics"
	"hdcedge/internal/rng"
)

// backoffSeq draws the first n backoff waits of a policy from a fresh
// seeded stream, one per retry attempt cycling 1..MaxRetries the way a
// run of consecutive faulted invokes would.
func backoffSeq(p RecoveryPolicy, seed uint64, n int) []time.Duration {
	r := rng.New(seed)
	seq := make([]time.Duration, n)
	for i := range seq {
		seq[i] = p.backoff(i%p.MaxRetries+1, r)
	}
	return seq
}

func TestBackoffJitterDeterministicUnderFixedSeed(t *testing.T) {
	// Same policy + same seed ⇒ bit-identical backoff schedule. This is
	// the regression gate for seeded jitter: a determinism break here
	// would make every fault experiment unreproducible.
	p := DefaultRecoveryPolicy()
	a := backoffSeq(p, 42, 64)
	b := backoffSeq(p, 42, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged under the same seed: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBackoffJitterDesynchronizesWorkers(t *testing.T) {
	// N workers retrying one shared fault take per-worker seeds (Seed+i,
	// exactly how serve.New offsets its fleet). Their schedules must not
	// align: synchronized backoff turns one fault into a retry storm that
	// re-collides on every attempt.
	p := DefaultRecoveryPolicy()
	const workers, draws = 8, 32
	seqs := make([][]time.Duration, workers)
	for w := range seqs {
		seqs[w] = backoffSeq(p, p.Seed+uint64(w), draws)
	}
	for a := 0; a < workers; a++ {
		for b := a + 1; b < workers; b++ {
			same := 0
			for i := 0; i < draws; i++ {
				if seqs[a][i] == seqs[b][i] {
					same++
				}
			}
			if same > draws/4 {
				t.Fatalf("workers %d and %d share %d/%d backoff draws — seeds not decorrelated", a, b, same, draws)
			}
		}
	}
}

func TestBackoffEqualJitterStaysInBand(t *testing.T) {
	// Equal jitter stays within ±JitterFrac of the nominal exponential
	// value, so seeded experiments keep their schedules.
	p := DefaultRecoveryPolicy() // JitterFrac 0.2
	r := rng.New(7)
	for attempt := 1; attempt <= p.MaxRetries; attempt++ {
		nominal := p.BaseBackoff << (attempt - 1)
		if nominal > p.MaxBackoff {
			nominal = p.MaxBackoff
		}
		for i := 0; i < 32; i++ {
			d := p.backoff(attempt, r)
			lo := time.Duration(float64(nominal) * (1 - p.JitterFrac))
			hi := time.Duration(float64(nominal) * (1 + p.JitterFrac))
			if d < lo || d > hi {
				t.Fatalf("attempt %d: equal jitter %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
}

func TestBreakerProbeOutcomeMetrics(t *testing.T) {
	// The half-open probe outcomes must be visible in the registry: a
	// failed probe shows up as a re-trip, a successful one as a probe
	// success, on top of the state gauge. Drive trip → probe-retrip →
	// heal → probe-success and read the counters back.
	r := breakerRunner(t, edgetpu.FaultPlan{Seed: 1, LinkErrorRate: 1}, probePolicy())
	reg := metrics.NewRegistry()
	r.Instrument(reg, `worker="0"`)
	invoke := func() {
		t.Helper()
		if _, err := r.InvokeBatch(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // trip
		invoke()
	}
	for i := 0; i < 2; i++ { // cooldown
		invoke()
	}
	invoke()                 // probe: link still dead → re-trip
	for i := 0; i < 2; i++ { // second cooldown
		invoke()
	}
	// The link heals; the next probe closes the breaker.
	if err := r.Device().InjectFaults(edgetpu.FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	invoke() // probe: success → close

	snap := reg.Snapshot()
	success := snap.Counters[`hdc_runner_breaker_probe_outcomes_total{outcome="success",worker="0"}`]
	retrip := snap.Counters[`hdc_runner_breaker_probe_outcomes_total{outcome="retrip",worker="0"}`]
	if success != 1 || retrip != 1 {
		t.Fatalf("probe outcome counters success=%d retrip=%d, want 1/1 (snapshot counters: %v)",
			success, retrip, snap.Counters)
	}
	rep := r.Report()
	if int(success) != rep.BreakerCloses || int(retrip) != rep.BreakerTrips-1 {
		t.Fatalf("registry (success=%d retrip=%d) disagrees with report %+v", success, retrip, rep)
	}
	if got := snap.Gauges[`hdc_runner_breaker_state{worker="0"}`]; got != int64(BreakerClosed) {
		t.Fatalf("breaker state gauge %d after successful probe, want closed", got)
	}
}
