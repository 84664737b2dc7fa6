package tflite

import (
	"fmt"
	"math"

	"hdcedge/internal/tensor"
)

// QuantizeModel performs post-training full-integer quantization of a
// float model, mirroring the TFLite converter's representative-dataset
// flow:
//
//  1. The float model is executed over every calibration batch and the
//     dynamic range of each activation is recorded.
//  2. A new graph is emitted in which activations are int8 with the
//     observed ranges, FULLY_CONNECTED weights are symmetric int8, biases
//     are int32 at scale (inScale·weightScale), and TANH outputs use the
//     fixed 1/128 scale.
//  3. The model keeps float inputs/outputs: a QUANTIZE op is inserted
//     after each input and a DEQUANTIZE before each float output, so
//     callers are unaffected. ARG_MAX outputs remain int32.
//
// Each calibration batch must contain exactly one full input tensor's
// worth of float data per model input, in model-input order.
func QuantizeModel(m *Model, calib [][][]float32) (*Model, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(calib) == 0 {
		return nil, fmt.Errorf("tflite: quantization requires a representative dataset")
	}
	// Calibration and the rewrite read one shared, read-only copy of each
	// constant (a view of the buffer where the host allows it), so the
	// float weights are never decoded twice.
	consts := make([]*tensor.Tensor, len(m.Tensors))
	for ti, info := range m.Tensors {
		if info.Buffer == NoBuffer {
			continue
		}
		c, err := m.readOnlyConst(ti)
		if err != nil {
			return nil, err
		}
		consts[ti] = c
	}
	observers, err := calibrate(m, consts, calib)
	if err != nil {
		return nil, err
	}
	return rewriteQuantized(m, consts, observers)
}

func calibrate(m *Model, consts []*tensor.Tensor, calib [][][]float32) ([]tensor.RangeObserver, error) {
	it, err := newInterpreter(m, consts)
	if err != nil {
		return nil, err
	}
	observers := make([]tensor.RangeObserver, len(m.Tensors))
	for bi, batch := range calib {
		if len(batch) != len(m.Inputs) {
			return nil, fmt.Errorf("tflite: calibration batch %d has %d inputs, model needs %d",
				bi, len(batch), len(m.Inputs))
		}
		for ii := range m.Inputs {
			in := it.Input(ii)
			if in.DType != tensor.Float32 {
				return nil, fmt.Errorf("tflite: calibration requires float model inputs")
			}
			if len(batch[ii]) != len(in.F32) {
				return nil, fmt.Errorf("tflite: calibration batch %d input %d has %d values, want %d",
					bi, ii, len(batch[ii]), len(in.F32))
			}
			copy(in.F32, batch[ii])
		}
		if err := it.Invoke(); err != nil {
			return nil, fmt.Errorf("tflite: calibration invoke: %w", err)
		}
		for ti := range m.Tensors {
			t := it.Tensor(ti)
			if t.DType == tensor.Float32 && m.Tensors[ti].Buffer == NoBuffer {
				observers[ti].Observe(t)
			}
		}
	}
	return observers, nil
}

func rewriteQuantized(m *Model, consts []*tensor.Tensor, observers []tensor.RangeObserver) (*Model, error) {
	b := NewBuilder(m.Name + "_int8")
	// qIdx maps an original tensor index to its int8 (or passthrough)
	// tensor in the new graph.
	qIdx := make([]int, len(m.Tensors))
	for i := range qIdx {
		qIdx[i] = -1
	}

	actParams := func(ti int) tensor.QuantParams {
		return observers[ti].Params()
	}

	// Inputs: declare float inputs, then QUANTIZE into the graph.
	for _, in := range m.Inputs {
		info := m.Tensors[in]
		fIdx := b.AddInput(info.Name, tensor.Float32, info.Shape...)
		qIdx[in] = b.Quantize(fIdx, actParams(in), info.Name+"_q")
	}

	for oi, op := range m.Operators {
		switch op.Op {
		case OpFullyConnected:
			if err := quantizeFC(b, m, consts, op, qIdx, actParams); err != nil {
				return nil, fmt.Errorf("tflite: op %d: %w", oi, err)
			}
		case OpTanh:
			in := qIdx[op.Inputs[0]]
			if in < 0 {
				return nil, fmt.Errorf("tflite: op %d TANH input not materialized", oi)
			}
			qIdx[op.Outputs[0]] = b.Tanh(in, m.Tensors[op.Outputs[0]].Name)
		case OpLogistic:
			in := qIdx[op.Inputs[0]]
			if in < 0 {
				return nil, fmt.Errorf("tflite: op %d LOGISTIC input not materialized", oi)
			}
			qIdx[op.Outputs[0]] = b.Logistic(in, m.Tensors[op.Outputs[0]].Name)
		case OpConcat:
			if err := quantizeConcat(b, m, op, qIdx); err != nil {
				return nil, fmt.Errorf("tflite: op %d: %w", oi, err)
			}
		case OpArgMax:
			in := qIdx[op.Inputs[0]]
			qIdx[op.Outputs[0]] = b.ArgMax(in, m.Tensors[op.Outputs[0]].Name)
		case OpReshape:
			// Reshape passes through with the input's quantization.
			in := qIdx[op.Inputs[0]]
			inInfo := b.m.Tensors[in]
			outShape := m.Tensors[op.Outputs[0]].Shape
			out := b.AddActivation(m.Tensors[op.Outputs[0]].Name, inInfo.DType, outShape...)
			if inInfo.Quant != nil {
				b.SetQuant(out, *inInfo.Quant)
			}
			b.m.Operators = append(b.m.Operators, Operator{Op: OpReshape, Inputs: []int{in}, Outputs: []int{out}})
			qIdx[op.Outputs[0]] = out
		default:
			return nil, fmt.Errorf("tflite: cannot quantize op %v", op.Op)
		}
	}

	// Outputs: dequantize int8 outputs back to float; int32 (ARG_MAX)
	// passes through.
	for _, out := range m.Outputs {
		ni := qIdx[out]
		if ni < 0 {
			return nil, fmt.Errorf("tflite: model output %d not materialized", out)
		}
		switch b.m.Tensors[ni].DType {
		case tensor.Int8:
			b.MarkOutput(b.Dequantize(ni, m.Tensors[out].Name+"_deq"))
		default:
			b.MarkOutput(ni)
		}
	}
	return b.Finish(), nil
}

func quantizeFC(b *Builder, m *Model, consts []*tensor.Tensor, op Operator, qIdx []int, actParams func(int) tensor.QuantParams) error {
	in := qIdx[op.Inputs[0]]
	if in < 0 {
		return fmt.Errorf("FC input not materialized")
	}
	wT, biasT := consts[op.Inputs[1]], consts[op.Inputs[2]]
	if wT == nil {
		return fmt.Errorf("FC weights must be constant: tensor %d (%s) is not", op.Inputs[1], m.Tensors[op.Inputs[1]].Name)
	}
	if biasT == nil {
		return fmt.Errorf("FC bias must be constant: tensor %d (%s) is not", op.Inputs[2], m.Tensors[op.Inputs[2]].Name)
	}
	if wT.DType != tensor.Float32 || biasT.DType != tensor.Float32 {
		return fmt.Errorf("FC expects float weights/bias, got %v/%v", wT.DType, biasT.DType)
	}
	wq := tensor.SymmetricQuantParams(tensor.AbsMax(wT))
	wInt := tensor.Quantize(wT, wq)

	inQuant := b.m.Tensors[in].Quant
	if inQuant == nil {
		return fmt.Errorf("FC input has no quantization")
	}
	biasScale := inQuant.Scale * wq.Scale
	biasInt := tensor.New(tensor.Int32, biasT.Shape...)
	biasInt.Quant = &tensor.QuantParams{Scale: biasScale, ZeroPoint: 0}
	for i, v := range biasT.F32 {
		q := math.Round(float64(v) / biasScale)
		if q > math.MaxInt32 {
			q = math.MaxInt32
		}
		if q < math.MinInt32 {
			q = math.MinInt32
		}
		biasInt.I32[i] = int32(q)
	}

	wName := m.Tensors[op.Inputs[1]].Name
	bName := m.Tensors[op.Inputs[2]].Name
	wi := b.AddConstI8(wName+"_q", wInt)
	bi := b.AddConstI32(bName+"_q", biasInt)
	out := b.FullyConnected(in, wi, bi, m.Tensors[op.Outputs[0]].Name)
	b.SetQuant(out, actParams(op.Outputs[0]))
	qIdx[op.Outputs[0]] = out
	return nil
}

func quantizeConcat(b *Builder, m *Model, op Operator, qIdx []int) error {
	ins := make([]int, len(op.Inputs))
	var q *tensor.QuantParams
	batch, total := 0, 0
	for i, oi := range op.Inputs {
		ni := qIdx[oi]
		if ni < 0 {
			return fmt.Errorf("CONCAT input not materialized")
		}
		info := b.m.Tensors[ni]
		if info.Quant == nil {
			return fmt.Errorf("CONCAT input missing quantization")
		}
		if q == nil {
			q = info.Quant
			batch = info.Shape[0]
		} else if info.Quant.Scale != q.Scale || info.Quant.ZeroPoint != q.ZeroPoint {
			return fmt.Errorf("CONCAT inputs have differing quantization (%v vs %v)", *info.Quant, *q)
		}
		total += info.Shape[1]
		ins[i] = ni
	}
	out := b.AddActivation(m.Tensors[op.Outputs[0]].Name, tensor.Int8, batch, total)
	b.SetQuant(out, *q)
	b.m.Operators = append(b.m.Operators, Operator{
		Op: OpConcat, Inputs: ins, Outputs: []int{out}, Opts: Options{Axis: 1},
	})
	qIdx[op.Outputs[0]] = out
	return nil
}
