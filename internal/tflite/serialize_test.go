package tflite

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSerializeRoundTrip(t *testing.T) {
	m := buildTinyFloatModel(2)
	raw := m.Marshal()
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("round-tripped model differs")
	}
}

func TestSerializeRoundTripQuantized(t *testing.T) {
	m := buildTinyFloatModel(1)
	calib := [][][]float32{
		{{1, 2, 3}},
		{{-1, -2, -3}},
		{{0.5, 0, -0.5}},
	}
	qm, err := QuantizeModel(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(qm.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qm, got) {
		t.Fatal("round-tripped quantized model differs")
	}
}

func TestSerializedModelBehavesIdentically(t *testing.T) {
	m := buildTinyFloatModel(1)
	m2, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewInterpreter(m)
	b, _ := NewInterpreter(m2)
	copy(a.Input(0).F32, []float32{0.3, -1.2, 2})
	copy(b.Input(0).F32, []float32{0.3, -1.2, 2})
	if err := a.Invoke(); err != nil {
		t.Fatal(err)
	}
	if err := b.Invoke(); err != nil {
		t.Fatal(err)
	}
	for i := range a.Output(0).F32 {
		if a.Output(0).F32[i] != b.Output(0).F32[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := buildTinyFloatModel(4)
	path := filepath.Join(t.TempDir(), "model.htfl")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("file round trip differs")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Unmarshal([]byte("XXXX garbage")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	raw := buildTinyFloatModel(1).Marshal()
	raw[4] = 99 // version byte (little endian u32)
	if _, err := Unmarshal(raw); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	raw := buildTinyFloatModel(1).Marshal()
	for _, cut := range []int{3, 8, len(raw) / 2, len(raw) - 1} {
		if _, err := Unmarshal(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Resealed, a truncated payload gets past the footer check, so the
	// parser itself must reject it.
	payload := raw[:len(raw)-crcFooterLen]
	for _, cut := range []int{3, 8, len(payload) / 2, len(payload) - 1} {
		if _, err := Unmarshal(withFooter(payload[:cut])); !parserError(err) {
			t.Fatalf("resealed truncation at %d: got %v, want a parse error", cut, err)
		}
	}
}

func TestReadRejectsCorruptedGraph(t *testing.T) {
	m := buildTinyFloatModel(1)
	m.Operators[0].Inputs[0] = 77 // structurally invalid
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("reader accepted structurally invalid graph")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := buildTinyFloatModel(2)
	if !bytes.Equal(m.Marshal(), m.Marshal()) {
		t.Fatal("Marshal is not deterministic")
	}
}

func TestMarshaledSizeMatchesMarshal(t *testing.T) {
	for _, m := range []*Model{buildTinyFloatModel(2), {Name: "empty"}} {
		if got, want := m.MarshaledSize(), len(m.Marshal()); got != want {
			t.Errorf("%s: MarshaledSize %d, len(Marshal()) %d", m.Name, got, want)
		}
	}
}
