package tflite

import (
	"math"
	"testing"

	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// TestFloatFCMatchesNaiveLoop checks the blocked float FC bit for bit
// against a naive loop that sums each output from its bias in ascending k,
// over every units%4 tail panel and batches of one, odd and even rows, with
// enough units to split across ParallelFor workers.
func TestFloatFCMatchesNaiveLoop(t *testing.T) {
	r := rng.New(3)
	for _, units := range []int{1, 2, 3, 4, 5, 6, 7, 64, 129, 130, 131} {
		for _, batch := range []int{1, 3, 4} {
			const depth = 53
			in := tensor.New(tensor.Float32, batch, depth)
			w := tensor.New(tensor.Float32, units, depth)
			bias := tensor.New(tensor.Float32, units)
			r.FillNormal(in.F32)
			r.FillNormal(w.F32)
			r.FillNormal(bias.F32)
			out := tensor.New(tensor.Float32, batch, units)
			if err := fullyConnectedFloat(in, w, bias, out); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < batch; b++ {
				for u := 0; u < units; u++ {
					sum := bias.F32[u]
					for k := 0; k < depth; k++ {
						sum += in.F32[b*depth+k] * w.F32[u*depth+k]
					}
					if got := out.F32[b*units+u]; math.Float32bits(got) != math.Float32bits(sum) {
						t.Fatalf("units %d batch %d: out[%d,%d] = %v, naive %v", units, batch, b, u, got, sum)
					}
				}
			}
		}
	}
}
