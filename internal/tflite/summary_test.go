package tflite

import (
	"strings"
	"testing"
	"testing/quick"

	"hdcedge/internal/tensor"
)

func TestAnalyzeOpsMACs(t *testing.T) {
	m := buildTinyFloatModel(2) // [2,3] -> FC(4) -> TANH -> FC(2)
	costs := m.AnalyzeOps()
	if len(costs) != 3 {
		t.Fatalf("%d op costs", len(costs))
	}
	if costs[0].MACs != 2*3*4 {
		t.Errorf("FC1 MACs = %d, want 24", costs[0].MACs)
	}
	if costs[1].MACs != 0 {
		t.Errorf("TANH MACs = %d", costs[1].MACs)
	}
	if costs[2].MACs != 2*4*2 {
		t.Errorf("FC2 MACs = %d, want 16", costs[2].MACs)
	}
	if m.TotalMACs() != 24+16 {
		t.Errorf("TotalMACs = %d", m.TotalMACs())
	}
}

func TestAnalyzeOpsParams(t *testing.T) {
	m := buildTinyFloatModel(1)
	costs := m.AnalyzeOps()
	// FC1 references w1 (12 floats) + b1 (4 floats) = 64 bytes.
	if costs[0].Params != 64 {
		t.Errorf("FC1 params = %d, want 64", costs[0].Params)
	}
}

func TestActivationBytes(t *testing.T) {
	m := buildTinyFloatModel(1)
	// Activations: in [1,3], h [1,4], ht [1,4], out [1,2] = 13 floats.
	if got := m.ActivationBytes(); got != 13*4 {
		t.Errorf("ActivationBytes = %d, want 52", got)
	}
}

func TestSummaryRenders(t *testing.T) {
	s := buildTinyFloatModel(2).Summary()
	for _, want := range []string{"FULLY_CONNECTED", "TANH", "MACs", "param bytes", "inputs:", "float32:8", "unused: []"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestUnusedDetection(t *testing.T) {
	m := buildTinyFloatModel(1)
	if u := m.Unused(); len(u) != 0 {
		t.Fatalf("clean model reports unused tensors %v", u)
	}
	b := NewBuilder("u")
	in := b.AddInput("in", tensor.Float32, 1, 2)
	b.AddActivation("orphan", tensor.Float32, 1, 2)
	b.MarkOutput(in)
	m2 := b.Finish()
	if u := m2.Unused(); len(u) != 1 {
		t.Fatalf("orphan not detected: %v", u)
	}
}

func TestDTypeCounts(t *testing.T) {
	m := buildTinyFloatModel(1)
	counts := m.DTypeCounts()
	if counts[tensor.Float32] != len(m.Tensors) {
		t.Fatalf("float model counts %v", counts)
	}
	qm, err := QuantizeModel(m, tinyCalib())
	if err != nil {
		t.Fatal(err)
	}
	qc := qm.DTypeCounts()
	if qc[tensor.Int8] < 5 {
		t.Fatalf("quantized model has only %d int8 tensors: %v", qc[tensor.Int8], qc)
	}
}

// Property: a corrupted serialized model never panics the reader — it
// either fails to parse or yields a model that validates.
func TestQuickReadNeverPanics(t *testing.T) {
	base := buildTinyFloatModel(2).Marshal()
	f := func(pos uint16, val byte) bool {
		raw := append([]byte(nil), base...)
		raw[int(pos)%len(raw)] = val
		defer func() {
			if recover() != nil {
				t.Errorf("Read panicked for corruption at %d=%d", pos, val)
			}
		}()
		m, err := Unmarshal(raw)
		if err != nil {
			return true
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: truncating the stream at any point never panics, and no strict
// prefix parses: neither as cut, the footerless one included, nor resealed
// with a valid footer, where the parser's own checks must catch it.
func TestQuickTruncationNeverPanics(t *testing.T) {
	base := buildTinyFloatModel(1).Marshal()
	payload := base[:len(base)-crcFooterLen]
	f := func(cut uint16) bool {
		n := int(cut) % len(base)
		m := int(cut) % len(payload)
		defer func() {
			if recover() != nil {
				t.Errorf("Read panicked for truncation at %d (resealed at %d)", n, m)
			}
		}()
		if _, err := Unmarshal(base[:n]); err == nil {
			return false
		}
		_, err := Unmarshal(withFooter(payload[:m]))
		return parserError(err)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
