package tflite

import (
	"testing"

	"hdcedge/internal/tensor"
)

// Native fuzz targets. `go test` runs the seed corpus; `go test -fuzz`
// explores further.

// FuzzReadModel unmarshals each input twice: as given, where only a blob
// ending in its footer may parse, and resealed with a valid footer, so the
// header, count and length checks behind the checksum are fuzzed too (a
// CRC32 footer does not vouch for its writer).
func FuzzReadModel(f *testing.F) {
	qm, err := QuantizeModel(buildTinyFloatModel(1), tinyCalib())
	if err != nil {
		f.Fatal(err)
	}
	for _, blob := range [][]byte{buildTinyFloatModel(1).Marshal(), buildTinyFloatModel(3).Marshal(), qm.Marshal()} {
		f.Add(blob)
		f.Add(blob[:len(blob)-crcFooterLen]) // footerless: rejected as given, parses resealed
	}
	f.Add([]byte("HTFL"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		parse := func(raw []byte) bool {
			m, err := Unmarshal(raw)
			if err != nil {
				return false
			}
			// Anything that parses must validate and re-serialize.
			if err := m.Validate(); err != nil {
				t.Fatalf("parsed model fails validation: %v", err)
			}
			if _, err := Unmarshal(m.Marshal()); err != nil {
				t.Fatalf("re-serialized model fails to parse: %v", err)
			}
			return true
		}
		if parse(data) && (len(data) < crcFooterLen || string(data[len(data)-crcFooterLen:len(data)-4]) != crcMagic) {
			t.Fatal("input without the integrity footer accepted")
		}
		parse(withFooter(data))
	})
}

func FuzzQuantRoundTrip(f *testing.F) {
	f.Add(-3.0, 3.0, 1.5)
	f.Add(0.0, 10.0, 9.0)
	f.Add(-0.001, 0.001, 0.0)
	f.Fuzz(func(t *testing.T, lo, hi, v float64) {
		if lo != lo || hi != hi || v != v { // NaN guards
			return
		}
		if lo < -1e12 || lo > 1e12 || hi < -1e12 || hi > 1e12 {
			return
		}
		q := tensor.ChooseQuantParams(lo, hi)
		if q.Scale <= 0 {
			t.Fatalf("non-positive scale %v for [%v, %v]", q.Scale, lo, hi)
		}
		code := q.QuantizeOne(v)
		back := q.DequantizeOne(code)
		// Dequantized values always lie in the representable envelope.
		floor := q.DequantizeOne(-128)
		ceil := q.DequantizeOne(127)
		if back < floor || back > ceil {
			t.Fatalf("round trip escaped the representable range: %v not in [%v, %v]", back, floor, ceil)
		}
	})
}
