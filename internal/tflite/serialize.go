package tflite

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

// Binary format (little endian throughout):
//
//	magic   "HTFL"          4 bytes
//	version uint32          currently 1
//	name    string          (uint32 length + bytes)
//	tensors  uint32 count, then per tensor:
//	    name string, dtype u8, rank u32, dims []i32,
//	    hasQuant u8 [scale f64, zeroPoint i32], buffer i32
//	operators uint32 count, then per op:
//	    opcode u8, nIn u32, inputs []i32, nOut u32, outputs []i32,
//	    axis i32, beta f32
//	buffers  uint32 count, then per buffer: u32 length + bytes
//	inputs   u32 count + []i32
//	outputs  u32 count + []i32
//	footer  "HCRC" + uint32 CRC32 (IEEE) of every preceding byte
//
// The footer is an integrity seal over the whole container: Unmarshal
// verifies it and rejects corrupt bytes with *ChecksumError. A blob without
// the footer is rejected too, since a cut-off footer would otherwise hide
// any corruption before it.

const (
	magic   = "HTFL"
	version = 1

	// crcMagic marks the integrity footer; crcFooterLen is its size.
	crcMagic     = "HCRC"
	crcFooterLen = 8
)

// ChecksumError reports a model container whose bytes do not match the
// CRC32 recorded in its footer.
type ChecksumError struct {
	Want uint32 // checksum recorded in the footer
	Got  uint32 // checksum of the payload as read
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("tflite: model checksum mismatch: footer %08x, payload %08x", e.Want, e.Got)
}

// WriteModel serializes the model and appends the CRC32 integrity footer.
func (m *Model) WriteModel(w io.Writer) error {
	h := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if err := m.writeBody(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var footer [crcFooterLen]byte
	copy(footer[:4], crcMagic)
	binary.LittleEndian.PutUint32(footer[4:], h.Sum32())
	_, err := w.Write(footer[:])
	return err
}

// writeBody emits the container payload (everything the footer seals).
func (m *Model) writeBody(bw *bufio.Writer) error {
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	writeU32(bw, version)
	writeString(bw, m.Name)

	writeU32(bw, uint32(len(m.Tensors)))
	for _, t := range m.Tensors {
		writeString(bw, t.Name)
		bw.WriteByte(byte(t.DType))
		writeU32(bw, uint32(len(t.Shape)))
		for _, d := range t.Shape {
			writeI32(bw, int32(d))
		}
		if t.Quant != nil {
			bw.WriteByte(1)
			writeF64(bw, t.Quant.Scale)
			writeI32(bw, t.Quant.ZeroPoint)
		} else {
			bw.WriteByte(0)
		}
		writeI32(bw, int32(t.Buffer))
	}

	writeU32(bw, uint32(len(m.Operators)))
	for _, op := range m.Operators {
		bw.WriteByte(byte(op.Op))
		writeIdxList(bw, op.Inputs)
		writeIdxList(bw, op.Outputs)
		writeI32(bw, op.Opts.Axis)
		writeF32(bw, op.Opts.Beta)
	}

	writeU32(bw, uint32(len(m.Buffers)))
	for _, b := range m.Buffers {
		writeU32(bw, uint32(len(b)))
		bw.Write(b)
	}

	writeIdxList(bw, m.Inputs)
	writeIdxList(bw, m.Outputs)
	return bw.Flush()
}

// Marshal serializes the model to a byte slice.
func (m *Model) Marshal() []byte {
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		// bytes.Buffer writes cannot fail.
		panic(err)
	}
	return buf.Bytes()
}

// MarshaledSize returns len(m.Marshal()) without building the blob: the
// container body is written to a byte counter, and the footer is fixed-size.
func (m *Model) MarshaledSize() int {
	var n byteCounter
	if err := m.writeBody(bufio.NewWriter(&n)); err != nil {
		// byteCounter writes cannot fail.
		panic(err)
	}
	return int(n) + crcFooterLen
}

// byteCounter is an io.Writer that only counts what it is given.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// Save writes the model to a file.
func (m *Model) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteModel(f); err != nil {
		f.Close()
		return fmt.Errorf("tflite: writing %s: %w", path, err)
	}
	return f.Close()
}

// Read consumes the reader and parses the model, verifying the integrity
// footer.
func Read(r io.Reader) (*Model, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tflite: reading model: %w", err)
	}
	return Unmarshal(raw)
}

// Unmarshal parses a model from a byte slice. The trailing "HCRC" footer
// must be present (its absence is an error) and match the payload (a
// mismatch is a *ChecksumError). Any bytes left over after the model are an
// error.
func Unmarshal(raw []byte) (*Model, error) {
	if len(raw) < crcFooterLen || string(raw[len(raw)-crcFooterLen:len(raw)-4]) != crcMagic {
		return nil, fmt.Errorf("tflite: model is missing its %q integrity footer", crcMagic)
	}
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	payload := raw[:len(raw)-crcFooterLen]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, &ChecksumError{Want: want, Got: got}
	}
	src := bytes.NewReader(payload)
	br := bufio.NewReader(src)
	m, err := parse(br)
	if err != nil {
		return nil, err
	}
	if rest := src.Len() + br.Buffered(); rest != 0 {
		return nil, fmt.Errorf("tflite: %d trailing bytes after model", rest)
	}
	return m, nil
}

// parse decodes the container payload and validates the model.
func parse(br *bufio.Reader) (*Model, error) {
	var mg [4]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, fmt.Errorf("tflite: reading magic: %w", err)
	}
	if string(mg[:]) != magic {
		return nil, fmt.Errorf("tflite: bad magic %q", mg)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("tflite: unsupported version %d", ver)
	}
	m := &Model{}
	if m.Name, err = readString(br); err != nil {
		return nil, err
	}

	nT, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nT > 1<<24 {
		return nil, fmt.Errorf("tflite: implausible tensor count %d", nT)
	}
	m.Tensors = make([]TensorInfo, nT)
	for i := range m.Tensors {
		t := &m.Tensors[i]
		if t.Name, err = readString(br); err != nil {
			return nil, err
		}
		dt, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		t.DType = tensor.DType(dt)
		rank, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if rank > 8 {
			return nil, fmt.Errorf("tflite: tensor %d rank %d too large", i, rank)
		}
		t.Shape = make(tensor.Shape, rank)
		for d := range t.Shape {
			v, err := readI32(br)
			if err != nil {
				return nil, err
			}
			t.Shape[d] = int(v)
		}
		hasQ, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if hasQ == 1 {
			scale, err := readF64(br)
			if err != nil {
				return nil, err
			}
			zp, err := readI32(br)
			if err != nil {
				return nil, err
			}
			t.Quant = &tensor.QuantParams{Scale: scale, ZeroPoint: zp}
		}
		buf, err := readI32(br)
		if err != nil {
			return nil, err
		}
		t.Buffer = int(buf)
	}

	nOp, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nOp > 1<<24 {
		return nil, fmt.Errorf("tflite: implausible op count %d", nOp)
	}
	m.Operators = make([]Operator, nOp)
	for i := range m.Operators {
		op := &m.Operators[i]
		code, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		op.Op = OpCode(code)
		if op.Inputs, err = readIdxList(br); err != nil {
			return nil, err
		}
		if op.Outputs, err = readIdxList(br); err != nil {
			return nil, err
		}
		if op.Opts.Axis, err = readI32(br); err != nil {
			return nil, err
		}
		if op.Opts.Beta, err = readF32(br); err != nil {
			return nil, err
		}
	}

	nB, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nB > 1<<24 {
		return nil, fmt.Errorf("tflite: implausible buffer count %d", nB)
	}
	m.Buffers = make([][]byte, nB)
	for i := range m.Buffers {
		ln, err := readU32(br)
		if err != nil {
			return nil, err
		}
		buf, err := readBytes(br, int(ln))
		if err != nil {
			return nil, err
		}
		m.Buffers[i] = buf
	}

	if m.Inputs, err = readIdxList(br); err != nil {
		return nil, err
	}
	if m.Outputs, err = readIdxList(br); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Load reads a model from a file.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("tflite: loading %s: %w", path, err)
	}
	return m, nil
}

// --- primitive encoders/decoders ---

func writeU32(w *bufio.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeI32(w *bufio.Writer, v int32) { writeU32(w, uint32(v)) }

func writeF32(w *bufio.Writer, v float32) { writeU32(w, math.Float32bits(v)) }

func writeF64(w *bufio.Writer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.Write(b[:])
}

func writeString(w *bufio.Writer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func writeIdxList(w *bufio.Writer, xs []int) {
	writeU32(w, uint32(len(xs)))
	for _, v := range xs {
		writeI32(w, int32(v))
	}
}

// readBytes reads exactly n bytes, growing the result in bounded chunks
// so a corrupted length field cannot force a huge up-front allocation.
func readBytes(r *bufio.Reader, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("tflite: negative byte count %d", n)
	}
	const chunk = 1 << 20
	out := make([]byte, 0, minInt(n, chunk))
	for len(out) < n {
		step := minInt(n-len(out), chunk)
		start := len(out)
		out = append(out, make([]byte, step)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func readU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readI32(r *bufio.Reader) (int32, error) {
	v, err := readU32(r)
	return int32(v), err
}

func readF32(r *bufio.Reader) (float32, error) {
	v, err := readU32(r)
	return math.Float32frombits(v), err
}

func readF64(r *bufio.Reader) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func readString(r *bufio.Reader) (string, error) {
	ln, err := readU32(r)
	if err != nil {
		return "", err
	}
	if ln > 1<<20 {
		return "", fmt.Errorf("tflite: implausible string length %d", ln)
	}
	buf := make([]byte, ln)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func readIdxList(r *bufio.Reader) ([]int, error) {
	ln, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if ln > 1<<24 {
		return nil, fmt.Errorf("tflite: implausible index list length %d", ln)
	}
	xs := make([]int, ln)
	for i := range xs {
		v, err := readI32(r)
		if err != nil {
			return nil, err
		}
		xs[i] = int(v)
	}
	return xs, nil
}
