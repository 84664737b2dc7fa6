package tflite

import (
	"strings"
	"testing"

	"hdcedge/internal/tensor"
)

// buildTinyFloatModel returns a 2-layer float network:
// input [batch, 3] -> FC(4 units) -> TANH -> FC(2 units) -> out.
func buildTinyFloatModel(batch int) *Model {
	b := NewBuilder("tiny")
	in := b.AddInput("in", tensor.Float32, batch, 3)
	w1 := tensor.FromFloat32([]float32{
		1, 0, 0,
		0, 1, 0,
		0, 0, 1,
		1, 1, 1,
	}, 4, 3)
	b1 := tensor.FromFloat32([]float32{0, 0, 0, 0}, 4)
	w2 := tensor.FromFloat32([]float32{
		1, -1, 1, -1,
		0.5, 0.5, 0.5, 0.5,
	}, 2, 4)
	b2 := tensor.FromFloat32([]float32{0.1, -0.1}, 2)
	h := b.FullyConnected(in, b.AddConstF32("w1", w1), b.AddConstF32("b1", b1), "h")
	ht := b.Tanh(h, "ht")
	out := b.FullyConnected(ht, b.AddConstF32("w2", w2), b.AddConstF32("b2", b2), "out")
	b.MarkOutput(out)
	return b.Finish()
}

func TestValidateAcceptsBuilderOutput(t *testing.T) {
	m := buildTinyFloatModel(2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadTensorIndex(t *testing.T) {
	m := buildTinyFloatModel(1)
	m.Operators[0].Inputs[0] = 99
	if err := m.Validate(); err == nil {
		t.Fatal("validate accepted out-of-range tensor index")
	}
}

func TestValidateRejectsUseBeforeDef(t *testing.T) {
	m := buildTinyFloatModel(1)
	// Swap the two FC ops so the second consumes an unproduced tensor.
	m.Operators[0], m.Operators[2] = m.Operators[2], m.Operators[0]
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "before it is produced") {
		t.Fatalf("validate accepted topological violation: %v", err)
	}
}

func TestValidateRejectsBufferSizeMismatch(t *testing.T) {
	m := buildTinyFloatModel(1)
	m.Buffers[0] = m.Buffers[0][:4]
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "buffer has") {
		t.Fatalf("validate accepted truncated buffer: %v", err)
	}
}

func TestValidateRejectsBadArity(t *testing.T) {
	m := buildTinyFloatModel(1)
	m.Operators[1].Inputs = append(m.Operators[1].Inputs, 0)
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("validate accepted bad arity: %v", err)
	}
}

func TestValidateRejectsUnproducedOutput(t *testing.T) {
	m := buildTinyFloatModel(1)
	m.Operators = m.Operators[:2] // drop the op that produces the output
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "never produced") {
		t.Fatalf("validate accepted unproduced output: %v", err)
	}
}

func TestConstTensorRoundTrip(t *testing.T) {
	m := buildTinyFloatModel(1)
	w1Idx := tensorByName(m, "w1")
	if w1Idx < 0 {
		t.Fatal("w1 not found")
	}
	ct, err := m.ConstTensor(w1Idx)
	if err != nil {
		t.Fatal(err)
	}
	if !ct.Shape.Equal(tensor.Shape{4, 3}) {
		t.Fatalf("shape %v", ct.Shape)
	}
	if ct.F32[0] != 1 || ct.F32[11] != 1 || ct.F32[1] != 0 {
		t.Fatalf("data %v", ct.F32)
	}
}

func TestConstTensorRejectsActivation(t *testing.T) {
	m := buildTinyFloatModel(1)
	if _, err := m.ConstTensor(m.Inputs[0]); err == nil {
		t.Fatal("ConstTensor on activation should fail")
	}
}

func TestParamBytes(t *testing.T) {
	m := buildTinyFloatModel(1)
	// w1: 12 floats, b1: 4, w2: 8, b2: 2 -> 26 floats = 104 bytes.
	if got := m.ParamBytes(); got != 104 {
		t.Fatalf("ParamBytes = %d, want 104", got)
	}
}

// tensorByName returns the index of the first tensor with the given name,
// or -1.
func tensorByName(m *Model, name string) int {
	for i, t := range m.Tensors {
		if t.Name == name {
			return i
		}
	}
	return -1
}

func TestTensorByNameMissing(t *testing.T) {
	m := buildTinyFloatModel(1)
	if tensorByName(m, "nope") != -1 {
		t.Fatal("missing name should return -1")
	}
}

func TestOpCodeString(t *testing.T) {
	if OpFullyConnected.String() != "FULLY_CONNECTED" {
		t.Fatal("opcode name wrong")
	}
	if !strings.HasPrefix(OpCode(200).String(), "OP(") {
		t.Fatal("unknown opcode should render numerically")
	}
}
