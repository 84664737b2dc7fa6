package integrity

import (
	"fmt"
	"math"

	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// A Canary is a known-answer check: one held-out sample with the label and
// score margin a healthy model produces for it. Canaries run through the
// real invoke path, so they catch corruption that checksums cannot see —
// damage on the activation path, or upsets landing between scrubs.
type Canary struct {
	Input  []float32 // feature vector (one sample row)
	Label  int       // expected argmax label on a healthy model
	Margin float64   // expected top-1 minus top-2 score gap
}

// CanaryError reports a failed known-answer check.
type CanaryError struct {
	Index      int    // which canary failed
	Reason     string // "label flip", "margin collapse", or an invoke error
	WantLabel  int
	GotLabel   int
	WantMargin float64
	GotMargin  float64
}

func (e *CanaryError) Error() string {
	return fmt.Sprintf("integrity: canary %d %s: want label %d margin %.2f, got label %d margin %.2f",
		e.Index, e.Reason, e.WantLabel, e.WantMargin, e.GotLabel, e.GotMargin)
}

// BuildCanaries records the golden answers for the given sample rows by
// running them through a fresh host interpreter — bit-exact with a healthy
// device, since the simulator executes the same integer kernels. Callers
// typically pass a handful of held-out rows and may drop low-margin ones
// (ambiguous samples make jumpy canaries).
func BuildCanaries(m *tflite.Model, rows [][]float32) ([]Canary, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	it, err := tflite.NewInterpreter(m)
	if err != nil {
		return nil, fmt.Errorf("integrity: canary interpreter: %w", err)
	}
	in := it.Input(0)
	features := in.Shape[len(in.Shape)-1]
	cs := make([]Canary, 0, len(rows))
	for i, row := range rows {
		if len(row) != features {
			return nil, fmt.Errorf("integrity: canary %d has %d features, model wants %d",
				i, len(row), features)
		}
		copy(in.F32[:features], row)
		if err := it.Invoke(); err != nil {
			return nil, fmt.Errorf("integrity: canary %d invoke: %w", i, err)
		}
		cs = append(cs, Canary{
			Input:  append([]float32(nil), row...),
			Label:  int(it.Output(0).I32[0]),
			Margin: MarginRow(it.Output(1), 0),
		})
	}
	return cs, nil
}

// MarginRow returns the top-1 minus top-2 score gap of one batch row of a
// scores tensor, in raw code units (int8 codes for quantized scores, float
// values otherwise). Margins recorded at build time and measured at run
// time use the same units, so the ratio test in Canary.Check is scale-free.
func MarginRow(scores *tensor.Tensor, row int) float64 {
	k := scores.Shape[len(scores.Shape)-1]
	base := row * k
	top1, top2 := math.Inf(-1), math.Inf(-1)
	for i := 0; i < k; i++ {
		var v float64
		switch {
		case len(scores.I8) > 0:
			v = float64(scores.I8[base+i])
		case len(scores.F32) > 0:
			v = float64(scores.F32[base+i])
		default:
			v = float64(scores.I32[base+i])
		}
		if v > top1 {
			top1, top2 = v, top1
		} else if v > top2 {
			top2 = v
		}
	}
	if math.IsInf(top2, -1) {
		return 0 // single-class scores have no margin
	}
	return top1 - top2
}

// marginFrac is the margin-collapse threshold as a fraction of the healthy
// margin: a canary fails if its margin drops below half the recorded one.
const marginFrac = 0.5

// Check compares an observed answer against the canary's golden one.
// A label flip always fails; a margin below marginFrac of the recorded
// healthy margin fails as margin collapse (skipped when the recorded margin
// is not positive — an ambiguous canary can't collapse further).
func (c Canary) Check(index, pred int, margin float64) *CanaryError {
	if pred != c.Label {
		return &CanaryError{Index: index, Reason: "label flip",
			WantLabel: c.Label, GotLabel: pred, WantMargin: c.Margin, GotMargin: margin}
	}
	if c.Margin > 0 && margin < marginFrac*c.Margin {
		return &CanaryError{Index: index, Reason: "margin collapse",
			WantLabel: c.Label, GotLabel: pred, WantMargin: c.Margin, GotMargin: margin}
	}
	return nil
}
