package hdc

import (
	"fmt"
	"math/bits"

	"hdcedge/internal/tensor"
)

// This file implements the classic bipolar HDC model: class hypervectors
// and encoded queries thresholded to {−1, +1} and bit-packed into uint64
// words, with similarity computed as Hamming agreement via XOR+popcount.
// It is the memory- and energy-minimal deployment form HDC papers use for
// microcontroller-class targets, and an extension point beyond the
// paper's int8 Edge TPU path: a d = 10,000 model shrinks to ~1.25 KB per
// class.

// BipolarModel is a sign-quantized HDC classifier. Bit value 1 encodes
// +1, bit 0 encodes −1 (zeros threshold to −1).
type BipolarModel struct {
	// Encoder is shared with the float model; queries are encoded in
	// float and then sign-thresholded.
	Encoder *Encoder
	// Dim is the hypervector width in elements.
	Dim int
	// Words holds each class's packed hypervector in ceil(Dim/64) words.
	Words [][]uint64
}

// wordsPerVector returns the packed length for dim elements.
func wordsPerVector(dim int) int { return (dim + 63) / 64 }

// WordsPerVector returns how many uint64 words a dim-element hypervector
// packs into: ceil(dim/64). Exported for execution backends that lay out
// packed buffers themselves (internal/backend/binhd).
func WordsPerVector(dim int) int { return wordsPerVector(dim) }

// Binarize converts the trained model to bipolar form.
func (m *Model) Binarize() *BipolarModel {
	d := m.Dim()
	bm := &BipolarModel{
		Encoder: m.Encoder,
		Dim:     d,
		Words:   make([][]uint64, m.K()),
	}
	for c := 0; c < m.K(); c++ {
		bm.Words[c] = packSigns(m.Classes.Row(c))
	}
	return bm
}

// packSigns packs sign(x) of every element into bits (1 for positive).
func packSigns(xs []float32) []uint64 {
	words := make([]uint64, wordsPerVector(len(xs)))
	PackSignsInto(words, xs)
	return words
}

// PackSignsInto packs sign(x) of every element of xs into dst (bit 1 for
// positive, 0 otherwise; zeros threshold to −1). dst must hold
// WordsPerVector(len(xs)) words; every dst word is fully rewritten,
// including unused high bits of the tail word, which are cleared. The word
// loop builds each word in a register before one store, so the serving
// fast path can pack without a read-modify-write per element.
func PackSignsInto(dst []uint64, xs []float32) {
	if len(dst) < wordsPerVector(len(xs)) {
		panic(fmt.Sprintf("hdc: PackSignsInto dst %d words, need %d", len(dst), wordsPerVector(len(xs))))
	}
	j := 0
	for wi := 0; wi < wordsPerVector(len(xs)); wi++ {
		var w uint64
		hi := j + 64
		if hi > len(xs) {
			hi = len(xs)
		}
		for bit := 0; j < hi; j, bit = j+1, bit+1 {
			if xs[j] > 0 {
				w |= 1 << uint(bit)
			}
		}
		dst[wi] = w
	}
}

// K returns the class count.
func (bm *BipolarModel) K() int { return len(bm.Words) }

// Bytes returns the packed model size (class hypervectors only).
func (bm *BipolarModel) Bytes() int { return bm.K() * wordsPerVector(bm.Dim) * 8 }

// hammingAgreement counts positions where the two packed vectors agree,
// over the first dim elements.
func hammingAgreement(a, b []uint64, dim int) int {
	agree := 0
	full := dim / 64
	for w := 0; w < full; w++ {
		agree += bits.OnesCount64(^(a[w] ^ b[w]))
	}
	if rem := dim % 64; rem > 0 {
		mask := uint64(1)<<uint(rem) - 1
		agree += bits.OnesCount64(^(a[full] ^ b[full]) & mask)
	}
	return agree
}

// HammingAgreement counts positions where two packed hypervectors agree
// over the first dim elements. Stray bits above dim in the tail word are
// masked out, so vectors packed from different scratch buffers compare
// equal whenever their first dim signs do.
func HammingAgreement(a, b []uint64, dim int) int { return hammingAgreement(a, b, dim) }

// ClassifyPacked returns the class whose packed hypervector agrees with
// the packed query in the most positions.
func (bm *BipolarModel) ClassifyPacked(query []uint64) int {
	best, bestAgree := 0, -1
	for c, cls := range bm.Words {
		if a := hammingAgreement(query, cls, bm.Dim); a > bestAgree {
			best, bestAgree = c, a
		}
	}
	return best
}

// Predict encodes, thresholds and classifies a raw feature vector.
func (bm *BipolarModel) Predict(features []float32) int {
	e := make([]float32, bm.Dim)
	bm.Encoder.Encode(e, features)
	return bm.ClassifyPacked(packSigns(e))
}

// PredictBatch classifies every row of an [s, n] design matrix.
func (bm *BipolarModel) PredictBatch(x *tensor.Tensor) []int {
	if x.DType != tensor.Float32 || len(x.Shape) != 2 {
		panic(fmt.Sprintf("hdc: PredictBatch needs a 2-D float matrix, got %v", x))
	}
	enc := bm.Encoder.EncodeBatch(x)
	out := make([]int, x.Shape[0])
	for i := range out {
		out[i] = bm.ClassifyPacked(packSigns(enc.Row(i)))
	}
	return out
}
