// Package nnmap realizes the paper's central interpretation: an HDC model
// *is* a hyper-wide three-layer neural network. The base-hypervector
// matrix B (n×d) becomes the first fully-connected layer's weights, tanh
// is its activation, and the class-hypervector matrix C (k×d) becomes the
// second fully-connected layer. The resulting tflite models are what the
// Edge TPU compiler consumes:
//
//   - the encoder model (first half) accelerates training-set encoding;
//   - the inference model (both halves plus arg-max) runs classification
//     entirely on the accelerator.
package nnmap

import (
	"fmt"

	"hdcedge/internal/dataset"
	"hdcedge/internal/hdc"
	"hdcedge/internal/tensor"
	"hdcedge/internal/tflite"
)

// BuildEncoderModel maps the encoding half of the HDC model to a float
// tflite graph with a fixed batch size: input [batch, n] → FC(d) → TANH →
// encoded [batch, d]. With a linear encoder the TANH is omitted.
func BuildEncoderModel(enc *hdc.Encoder, batch int) (*tflite.Model, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("nnmap: batch must be positive, got %d", batch)
	}
	b := tflite.NewBuilder(fmt.Sprintf("hdc-encoder-n%d-d%d", enc.Features(), enc.Dim()))
	in := b.AddInput("features", tensor.Float32, batch, enc.Features())
	// FC weights are [units, depth] = [d, n]: the transpose of B.
	bias := tensor.New(tensor.Float32, enc.Dim())
	h := b.FullyConnected(in, b.AddConstF32Transposed("base_T", enc.Base), b.AddConstF32("bias0", bias), "bundled")
	out := h
	if enc.Nonlinear {
		out = b.Tanh(h, "encoded")
	}
	b.MarkOutput(out)
	return b.Finish(), nil
}

// BuildInferenceModel maps the full HDC classifier to a float tflite
// graph: input [batch, n] → FC(d) → TANH → FC(k) → {ARG_MAX, scores}.
// Output 0 is the int32 class prediction; output 1 the similarity scores.
func BuildInferenceModel(m *hdc.Model, batch int) (*tflite.Model, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("nnmap: batch must be positive, got %d", batch)
	}
	enc := m.Encoder
	b := tflite.NewBuilder(fmt.Sprintf("hdc-inference-n%d-d%d-k%d", enc.Features(), m.Dim(), m.K()))
	in := b.AddInput("features", tensor.Float32, batch, enc.Features())
	bias1 := tensor.New(tensor.Float32, enc.Dim())
	h := b.FullyConnected(in, b.AddConstF32Transposed("base_T", enc.Base), b.AddConstF32("bias0", bias1), "bundled")
	e := h
	if enc.Nonlinear {
		e = b.Tanh(h, "encoded")
	}
	// Class hypervectors are already [k, d] = [units, depth].
	bias2 := tensor.New(tensor.Float32, m.K())
	scores := b.FullyConnected(e, b.AddConstF32("classes", m.Classes), b.AddConstF32("bias1", bias2), "scores")
	b.MarkOutput(b.ArgMax(scores, "prediction"))
	b.MarkOutput(scores)
	return b.Finish(), nil
}

// CalibrationBatches packs dataset rows into full calibration batches for
// a model whose input is [batch, features]. At most maxBatches batches are
// produced; the trailing partial batch is dropped. A non-empty set with no
// full batch yields one batch padded with its last row, the padding the
// device loop gives a partial batch.
func CalibrationBatches(ds *dataset.Dataset, batch, maxBatches int) [][][]float32 {
	n, s := ds.Features(), ds.Samples()
	full := s / batch
	if full == 0 && s > 0 {
		full = 1
	}
	if maxBatches > 0 && full > maxBatches {
		full = maxBatches
	}
	out := make([][][]float32, 0, full)
	for bi := 0; bi < full; bi++ {
		buf := make([]float32, batch*n)
		for r := 0; r < batch; r++ {
			copy(buf[r*n:(r+1)*n], ds.X.Row(min(bi*batch+r, s-1)))
		}
		out = append(out, [][]float32{buf})
	}
	return out
}

// QuantizeForTPU runs post-training full-integer quantization against a
// representative dataset, producing the model the Edge TPU compiler
// accepts.
func QuantizeForTPU(m *tflite.Model, calib *dataset.Dataset, batch, maxBatches int) (*tflite.Model, error) {
	batches := CalibrationBatches(calib, batch, maxBatches)
	if len(batches) == 0 {
		return nil, fmt.Errorf("nnmap: empty calibration dataset")
	}
	return tflite.QuantizeModel(m, batches)
}
