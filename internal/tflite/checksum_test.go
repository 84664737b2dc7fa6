package tflite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

func TestChecksumRoundTrip(t *testing.T) {
	m := buildTinyFloatModel(2)
	blob := m.Marshal()
	if len(blob) < crcFooterLen || string(blob[len(blob)-crcFooterLen:len(blob)-4]) != crcMagic {
		t.Fatalf("marshal emitted no integrity footer: tail %q", blob[len(blob)-crcFooterLen:])
	}
	got, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("checksummed round trip diverged")
	}
}

func TestChecksumRejectsBitFlip(t *testing.T) {
	blob := buildTinyFloatModel(1).Marshal()
	// Flip one payload bit: the footer CRC no longer matches.
	corrupt := append([]byte(nil), blob...)
	corrupt[10] ^= 0x40
	_, err := Unmarshal(corrupt)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("payload bit flip returned %v, want ChecksumError", err)
	}
	if ce.Want == ce.Got {
		t.Fatalf("mismatch error with equal sums: %v", ce)
	}
	// Flip a bit in the recorded CRC itself: also a checksum mismatch.
	corrupt = append([]byte(nil), blob...)
	corrupt[len(corrupt)-1] ^= 0x01
	if _, err := Unmarshal(corrupt); !errors.As(err, &ce) {
		t.Fatalf("footer bit flip returned %v, want ChecksumError", err)
	}
	// Corrupt the footer magic: the blob no longer ends in a footer, so the
	// stale 8 bytes are trailing garbage, not a silently-accepted legacy blob.
	corrupt = append([]byte(nil), blob...)
	corrupt[len(corrupt)-crcFooterLen] ^= 0x02
	if _, err := Unmarshal(corrupt); err == nil {
		t.Fatal("corrupt footer magic accepted")
	}
}

// TestChecksumRejectsStrippedFooter cuts the 8-byte footer off a sealed
// blob. Without the footer nothing can vouch for the payload, so the blob
// is rejected whether its payload is intact or carries a flipped weight
// bit; otherwise cutting the footer would hide any corruption before it.
func TestChecksumRejectsStrippedFooter(t *testing.T) {
	m := buildTinyFloatModel(2)
	blob := m.Marshal()
	var w1 []byte
	for _, tn := range m.Tensors {
		if tn.Name == "w1" {
			w1 = m.Buffers[tn.Buffer]
		}
	}
	at := bytes.Index(blob, w1)
	if w1 == nil || at < 0 {
		t.Fatal("w1 weights not found in the blob")
	}
	flipped := append([]byte(nil), blob...)
	flipped[at+2] ^= 0x01 // w1[0]: 1.0 -> 1.0078125
	var ce *ChecksumError
	if _, err := Unmarshal(flipped); !errors.As(err, &ce) {
		t.Fatalf("sealed weight flip returned %v, want ChecksumError", err)
	}
	for _, c := range []struct {
		name   string
		sealed []byte
	}{{"intact", blob}, {"weight-flip", flipped}} {
		stripped := c.sealed[:len(c.sealed)-crcFooterLen]
		if _, err := Unmarshal(stripped); err == nil || !strings.Contains(err.Error(), "integrity footer") {
			t.Errorf("%s payload without footer: Unmarshal returned %v, want a missing-footer error", c.name, err)
		}
		if _, err := Read(bytes.NewReader(stripped)); err == nil || !strings.Contains(err.Error(), "integrity footer") {
			t.Errorf("%s payload without footer: Read returned %v, want a missing-footer error", c.name, err)
		}
	}
}

func TestChecksumRejectsTrailingGarbage(t *testing.T) {
	blob := buildTinyFloatModel(1).Marshal()
	payload := blob[:len(blob)-crcFooterLen]
	// Garbage after a footerless payload must not parse.
	if _, err := Unmarshal(append(append([]byte(nil), payload...), 0xAA, 0xBB)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Garbage between payload and a recomputed valid footer must not parse
	// either: the CRC passes but the model has leftover bytes.
	padded := append(append([]byte(nil), payload...), 0xAA, 0xBB, 0xCC)
	if _, err := Unmarshal(withFooter(padded)); err == nil {
		t.Fatal("padded-but-checksummed blob accepted")
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

// parserError reports whether err came from the parser itself rather than
// from the footer check in front of it.
func parserError(err error) bool {
	var ce *ChecksumError
	return err != nil && !errors.As(err, &ce) && !strings.Contains(err.Error(), "integrity footer")
}

// FuzzModelChecksum asserts the integrity property end to end: starting
// from a valid checksummed blob, any single bit flip and any strict
// truncation, cutting exactly the footer included, must be rejected.
func FuzzModelChecksum(f *testing.F) {
	blob := buildTinyFloatModel(1).Marshal()
	f.Add(0, uint8(1))
	f.Add(len(blob)-1, uint8(0x80))
	f.Add(len(blob)/2, uint8(0xFF))
	f.Fuzz(func(t *testing.T, pos int, mask uint8) {
		if pos < 0 {
			pos = -pos
		}
		pos %= len(blob)
		if mask != 0 {
			corrupt := append([]byte(nil), blob...)
			corrupt[pos] ^= mask
			if _, err := Unmarshal(corrupt); err == nil {
				t.Fatalf("bit flip %#02x at %d accepted", mask, pos)
			}
		}
		if pos > 0 {
			if _, err := Unmarshal(blob[:pos]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", pos)
			}
		}
	})
}
