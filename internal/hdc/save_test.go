package hdc

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdcedge/internal/tensor"
)

// saveTestModel builds a small deterministic model worth roundtripping.
func saveTestModel() *Model {
	base := tensor.New(tensor.Float32, 5, 16)
	for i := range base.F32 {
		base.F32[i] = float32(i%7) - 3
	}
	classes := tensor.New(tensor.Float32, 3, 16)
	for i := range classes.F32 {
		classes.F32[i] = float32(i%5) * 0.25
	}
	return &Model{
		Encoder: &Encoder{Base: base, Nonlinear: true},
		Classes: classes,
		Metric:  Similarity(1),
	}
}

func TestSaveLoadRoundtripWithFooter(t *testing.T) {
	m := saveTestModel()
	path := filepath.Join(t.TempDir(), "m.hdm")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < crcFooterLen || string(raw[len(raw)-crcFooterLen:len(raw)-4]) != crcMagic {
		t.Fatalf("saved file lacks the %q integrity footer", crcMagic)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoder.Features() != 5 || got.Dim() != 16 || got.K() != 3 ||
		!got.Encoder.Nonlinear || got.Metric != m.Metric {
		t.Fatalf("roundtrip lost shape or flags: %+v", got)
	}
	for i, v := range m.Encoder.Base.F32 {
		if got.Encoder.Base.F32[i] != v {
			t.Fatalf("base[%d] = %g, want %g", i, got.Encoder.Base.F32[i], v)
		}
	}
	for i, v := range m.Classes.F32 {
		if got.Classes.F32[i] != v {
			t.Fatalf("classes[%d] = %g, want %g", i, got.Classes.F32[i], v)
		}
	}
}

// TestLoadModelDetectsCorruption flips one payload byte in a sealed file
// and expects the typed checksum error naming both sides of the mismatch.
func TestLoadModelDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.hdm")
	if err := saveTestModel().Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10 // one bit, mid-payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadModel(path)
	if err == nil {
		t.Fatal("corrupted model loaded cleanly")
	}
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (%T) is not a *ChecksumError", err, err)
	}
	if ce.Path != path || ce.Want == ce.Got {
		t.Fatalf("checksum error underspecified: %+v", ce)
	}
}

// TestLoadModelRejectsStrippedFooter cuts the 8-byte footer off a sealed
// file. Without the footer nothing can vouch for the payload, so the file
// is rejected whether its payload is intact or carries a flipped class
// bit; otherwise cutting the footer would hide any corruption before it.
func TestLoadModelRejectsStrippedFooter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.hdm")
	if err := saveTestModel().Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-crcFooterLen-1] ^= 0x01 // last class float
	for _, c := range []struct {
		name   string
		sealed []byte
	}{{"intact", raw}, {"class-flip", flipped}} {
		stripped := filepath.Join(dir, c.name+".hdm")
		if err := os.WriteFile(stripped, c.sealed[:len(c.sealed)-crcFooterLen], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(stripped); err == nil || !strings.Contains(err.Error(), "integrity footer") {
			t.Errorf("%s payload without footer: LoadModel returned %v, want a missing-footer error", c.name, err)
		}
	}

	// Corrupting a sealed file's footer fails the checksum.
	sealedBad := filepath.Join(dir, "badfooter.hdm")
	raw2 := append([]byte(nil), raw...)
	raw2[len(raw2)-1] ^= 0xFF
	if err := os.WriteFile(sealedBad, raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *ChecksumError
	if _, err := LoadModel(sealedBad); !errors.As(err, &ce) {
		t.Fatalf("footer corruption yielded %v, want *ChecksumError", err)
	}
}

// withFooter appends a valid "HCRC" footer to payload, so a test can reach
// the parser's own checks with bytes the checksum does not reject.
func withFooter(payload []byte) []byte {
	var footer [crcFooterLen]byte
	copy(footer[:4], crcMagic)
	binary.LittleEndian.PutUint32(footer[4:], crc32.ChecksumIEEE(payload))
	return append(append([]byte(nil), payload...), footer[:]...)
}

// TestLoadModelRejectsTrailingGarbage: extra bytes between the model and
// the footer are an error even when the footer matches them, and so is a
// truncated model under a matching footer.
func TestLoadModelRejectsTrailingGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.hdm")
	if err := saveTestModel().Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[:len(raw)-crcFooterLen]
	padded := filepath.Join(t.TempDir(), "padded.hdm")
	if err := os.WriteFile(padded, withFooter(append(append([]byte(nil), payload...), 0xAB, 0xCD)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(padded); err == nil {
		t.Fatal("trailing garbage loaded cleanly")
	}

	truncated := filepath.Join(t.TempDir(), "trunc.hdm")
	if err := os.WriteFile(truncated, withFooter(payload[:len(payload)-3]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(truncated); err == nil {
		t.Fatal("truncated model loaded cleanly")
	}
}
