package hdc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"hdcedge/internal/tensor"
)

// Model binary format (little endian): magic "HDM1", nonlinear u8,
// metric u8, n u32, d u32, k u32, base [n*d]f32, classes [k*d]f32,
// footer "HCRC" + uint32 CRC32 (IEEE) of every preceding byte.
//
// The footer is an integrity seal over the whole file, mirroring the
// tflite container scheme: LoadModel verifies it and rejects corrupt
// bytes with *ChecksumError. A file without the footer is rejected too,
// since a cut-off footer would otherwise hide any corruption before it.

const (
	modelMagic = "HDM1"

	// crcMagic marks the integrity footer; crcFooterLen is its size.
	crcMagic     = "HCRC"
	crcFooterLen = 8
)

// ChecksumError reports a model file whose bytes do not match the CRC32
// recorded in its footer.
type ChecksumError struct {
	Path string // file being loaded
	Want uint32 // checksum recorded in the footer
	Got  uint32 // checksum of the payload as read
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("hdc: model checksum mismatch in %s: footer %08x, payload %08x", e.Path, e.Want, e.Got)
}

// Save writes the model to a file, sealed by the CRC32 integrity footer.
func (m *Model) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	h := crc32.NewIEEE()
	w := bufio.NewWriter(io.MultiWriter(f, h))
	if err := m.writeTo(w); err != nil {
		f.Close()
		return fmt.Errorf("hdc: writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return sealAndClose(f, h.Sum32())
}

// sealAndClose appends the "HCRC" footer recording sum, the CRC32 of
// everything written to f so far, and closes f.
func sealAndClose(f *os.File, sum uint32) error {
	var footer [crcFooterLen]byte
	copy(footer[:4], crcMagic)
	binary.LittleEndian.PutUint32(footer[4:], sum)
	if _, err := f.Write(footer[:]); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unseal verifies raw's "HCRC" footer against the bytes before it and
// returns those bytes. A file without the footer is an error, and a
// mismatch is a *ChecksumError.
func unseal(path string, raw []byte) ([]byte, error) {
	if len(raw) < crcFooterLen || string(raw[len(raw)-crcFooterLen:len(raw)-4]) != crcMagic {
		return nil, fmt.Errorf("hdc: %s is missing its %q integrity footer", path, crcMagic)
	}
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	payload := raw[:len(raw)-crcFooterLen]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, &ChecksumError{Path: path, Want: want, Got: got}
	}
	return payload, nil
}

func (m *Model) writeTo(w *bufio.Writer) error {
	if _, err := w.WriteString(modelMagic); err != nil {
		return err
	}
	if m.Encoder.Nonlinear {
		w.WriteByte(1)
	} else {
		w.WriteByte(0)
	}
	w.WriteByte(byte(m.Metric))
	putU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		w.Write(b[:])
	}
	putU32(uint32(m.Encoder.Features()))
	putU32(uint32(m.Dim()))
	putU32(uint32(m.K()))
	for _, v := range m.Encoder.Base.F32 {
		putU32(math.Float32bits(v))
	}
	for _, v := range m.Classes.F32 {
		putU32(math.Float32bits(v))
	}
	return nil
}

// LoadModel reads a model written by Save. The "HCRC" footer must be
// present and match the payload (see unseal); any bytes left over after
// the model are an error.
func LoadModel(path string) (*Model, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := unseal(path, raw)
	if err != nil {
		return nil, err
	}
	src := bytes.NewReader(payload)
	r := bufio.NewReader(src)
	var mg [4]byte
	if _, err := io.ReadFull(r, mg[:]); err != nil {
		return nil, err
	}
	if string(mg[:]) != modelMagic {
		return nil, fmt.Errorf("hdc: bad model magic %q in %s", mg, path)
	}
	flags := make([]byte, 2)
	if _, err := io.ReadFull(r, flags); err != nil {
		return nil, err
	}
	getU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	n, err := getU32()
	if err != nil {
		return nil, err
	}
	d, err := getU32()
	if err != nil {
		return nil, err
	}
	k, err := getU32()
	if err != nil {
		return nil, err
	}
	if n == 0 || d == 0 || k < 2 || n > 1<<20 || d > 1<<24 || k > 1<<16 {
		return nil, fmt.Errorf("hdc: implausible model dims n=%d d=%d k=%d", n, d, k)
	}
	readF32s := func(dst []float32) error {
		for i := range dst {
			bits, err := getU32()
			if err != nil {
				return err
			}
			dst[i] = math.Float32frombits(bits)
		}
		return nil
	}
	base := tensor.New(tensor.Float32, int(n), int(d))
	if err := readF32s(base.F32); err != nil {
		return nil, err
	}
	classes := tensor.New(tensor.Float32, int(k), int(d))
	if err := readF32s(classes.F32); err != nil {
		return nil, err
	}
	if rest := src.Len() + r.Buffered(); rest != 0 {
		return nil, fmt.Errorf("hdc: %d trailing bytes after model in %s", rest, path)
	}
	return &Model{
		Encoder: &Encoder{Base: base, Nonlinear: flags[0] == 1},
		Classes: classes,
		Metric:  Similarity(flags[1]),
	}, nil
}
