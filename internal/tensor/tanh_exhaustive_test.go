//go:build tanhexhaustive

package tensor

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestTanhSliceExhaustive checks TanhSlice against float32(math.Tanh(x))
// bit for bit on all 2^32 float32 inputs, split across GOMAXPROCS
// workers. It takes minutes, so it is behind the tanhexhaustive build tag:
//
//	make tanh-exhaustive
func TestTanhSliceExhaustive(t *testing.T) {
	start := time.Now()
	workers := runtime.GOMAXPROCS(0)
	const total = uint64(1) << 32
	span := total / uint64(workers)
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := uint64(w)*span, uint64(w+1)*span
		if w == workers-1 {
			hi = total
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts[w] = checkTanhRange(t, lo, hi, 1)
		}(w)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	if n != int(total) && !t.Failed() {
		t.Fatalf("checked %d inputs, want %d", n, total)
	}
	t.Logf("%d inputs bit-identical in %v (%d workers)", n, time.Since(start).Round(time.Second), workers)
}
