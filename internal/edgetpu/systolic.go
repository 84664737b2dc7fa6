package edgetpu

import (
	"fmt"

	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// Array is the cycle model of the weight-stationary systolic matrix unit.
// A weight tile of Rows×Cols int8 values is shifted into the array, then
// activation rows stream through; each cycle every resident PE performs one
// int8·int8→int32 multiply-accumulate. The arithmetic itself is the
// interpreter's int8 kernel: the device executes delegated ops through its
// interpreter and the Array only prices them.
type Array struct {
	Rows, Cols int
}

// FCStats reports the work one FULLY_CONNECTED invocation performed.
type FCStats struct {
	Cycles uint64
	MACs   uint64
	TilesK int // tiles along the contraction (depth) axis
	TilesU int // tiles along the output-unit axis
}

// fcCycles models the dataflow cost of one FULLY_CONNECTED execution.
// For each of TilesK×TilesU weight tiles the array pays:
//
//	Rows cycles        shifting the weight tile in (column-parallel),
//	batch cycles       streaming the activation rows through, and
//	Rows+Cols cycles   pipeline fill/drain skew.
//
// Partial sums across depth tiles accumulate in the on-chip accumulators,
// so no extra cycles are charged for reduction.
func (a Array) fcCycles(batch, depth, units int) FCStats {
	tilesK := (depth + a.Rows - 1) / a.Rows
	tilesU := (units + a.Cols - 1) / a.Cols
	perTile := uint64(a.Rows + batch + a.Rows + a.Cols)
	return FCStats{
		Cycles: uint64(tilesK) * uint64(tilesU) * perTile,
		MACs:   uint64(batch) * uint64(depth) * uint64(units),
		TilesK: tilesK,
		TilesU: tilesU,
	}
}

// lutCycles models an element-wise lookup pass (TANH): the activation
// pipeline processes Cols elements per cycle.
func (a Array) lutCycles(elems int) uint64 {
	return uint64((elems + a.Cols - 1) / a.Cols)
}

// RunFullyConnected executes the quantized FC with the one int8 kernel
// (tflite.FullyConnectedInt8, the same kernel a device invoke runs) and
// returns the cycles the array would spend on it. Array geometry affects
// only the cycle count, never the result.
func (a Array) RunFullyConnected(in, w, bias, out *tensor.Tensor) (FCStats, error) {
	if err := tflite.FullyConnectedInt8(in, w, bias, out); err != nil {
		return FCStats{}, fmt.Errorf("edgetpu: %w", err)
	}
	return a.fcCycles(in.Shape[0], in.Shape[1], w.Shape[0]), nil
}
