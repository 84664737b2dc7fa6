package hdc

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"hdcedge/internal/rng"
)

func TestBinarizeAccuracyNearFloat(t *testing.T) {
	// The classic HDC result: sign-quantizing a wide model costs only a
	// few points of accuracy.
	train, test := synthTrainTest(t, 32, 1600, 5, 700)
	m, _, err := Train(train, nil, TrainConfig{Dim: 4096, Epochs: 8, LearningRate: 1, Nonlinear: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bm := m.Binarize()
	floatAcc := m.Accuracy(test)
	preds := bm.PredictBatch(test.X)
	correct := 0
	for i, p := range preds {
		if p == test.Y[i] {
			correct++
		}
	}
	binAcc := float64(correct) / float64(len(preds))
	if binAcc < floatAcc-0.08 {
		t.Fatalf("bipolar accuracy %.3f too far below float %.3f", binAcc, floatAcc)
	}
}

func TestBinarizeModelSize(t *testing.T) {
	enc := NewEncoder(8, 10000, true, rng.New(1))
	m := NewModel(enc, 26)
	bm := m.Binarize()
	// ceil(10000/64) = 157 words = 1256 bytes per class.
	if want := 26 * 157 * 8; bm.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", bm.Bytes(), want)
	}
}

func TestPackSigns(t *testing.T) {
	xs := []float32{1, -1, 0, 2, -0.5}
	w := packSigns(xs)
	// Positions 0 and 3 positive; zero thresholds to -1.
	if w[0] != 0b01001 {
		t.Fatalf("packed %b", w[0])
	}
}

func TestHammingAgreement(t *testing.T) {
	a := []uint64{0b1010, 0}
	b := []uint64{0b1000, 0}
	// Over 4 elements: positions 3 agree(1/1), 2 disagree, 1 agree(1? a:1,b:0 disagree)...
	// a = 1010, b = 1000: agree at bits 0 (0,0), 2 (0,0), 3 (1,1); disagree at bit 1.
	if got := hammingAgreement(a, b, 4); got != 3 {
		t.Fatalf("agreement = %d, want 3", got)
	}
	// Full-width check.
	c := []uint64{^uint64(0)}
	d := []uint64{0}
	if got := hammingAgreement(c, d, 64); got != 0 {
		t.Fatalf("opposite vectors agree %d times", got)
	}
	if got := hammingAgreement(c, c, 64); got != 64 {
		t.Fatalf("identical vectors agree %d times", got)
	}
}

func TestHammingAgreementPartialWord(t *testing.T) {
	a := []uint64{^uint64(0)}
	b := []uint64{^uint64(0)}
	for dim := 1; dim <= 64; dim++ {
		if got := hammingAgreement(a, b, dim); got != dim {
			t.Fatalf("dim %d: agreement %d", dim, got)
		}
	}
}

func TestBipolarPredictSingleMatchesBatch(t *testing.T) {
	train, test := synthTrainTest(t, 16, 600, 3, 701)
	m, _, err := Train(train, nil, TrainConfig{Dim: 512, Epochs: 4, LearningRate: 1, Nonlinear: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bm := m.Binarize()
	batch := bm.PredictBatch(test.X)
	for i := 0; i < min(50, test.Samples()); i++ {
		if single := bm.Predict(test.X.Row(i)); single != batch[i] {
			t.Fatalf("sample %d: single %d vs batch %d", i, single, batch[i])
		}
	}
}

// Property: agreement is symmetric and bounded by dim.
func TestQuickHammingProperties(t *testing.T) {
	f := func(aw, bw uint64, dim8 uint8) bool {
		dim := int(dim8%64) + 1
		a := []uint64{aw}
		b := []uint64{bw}
		ab := hammingAgreement(a, b, dim)
		ba := hammingAgreement(b, a, dim)
		if ab != ba {
			return false
		}
		if ab < 0 || ab > dim {
			return false
		}
		// Self-agreement is always dim.
		return hammingAgreement(a, a, dim) == dim
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBipolarSaveLoad(t *testing.T) {
	train, test := synthTrainTest(t, 16, 600, 3, 702)
	m, _, err := Train(train, nil, TrainConfig{Dim: 512, Epochs: 4, LearningRate: 1, Nonlinear: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bm := m.Binarize()
	path := filepath.Join(t.TempDir(), "model.hdb")
	if err := bm.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBipolarModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != bm.Dim || got.K() != bm.K() {
		t.Fatal("dims changed in round trip")
	}
	for i := 0; i < 40; i++ {
		if got.Predict(test.X.Row(i)) != bm.Predict(test.X.Row(i)) {
			t.Fatalf("reloaded bipolar model diverges at %d", i)
		}
	}
}

func TestLoadBipolarRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.hdb")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBipolarModel(path); err == nil {
		t.Fatal("garbage accepted")
	}
}

// trainedBipolar builds a small deterministic bipolar model for the
// container tests.
func trainedBipolar(t testing.TB, dim int) *BipolarModel {
	t.Helper()
	train, _ := synthTrainTest(t, 12, 400, 3, 703)
	m, _, err := Train(train, nil, TrainConfig{Dim: dim, Epochs: 2, LearningRate: 1, Nonlinear: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m.Binarize()
}

// TestBipolarSaveFooter covers the integrity seal end to end: a saved file
// carries the "HCRC" footer, corruption anywhere in the payload or footer
// is a *ChecksumError, a file without the footer is rejected even when its
// payload is intact, and trailing bytes are rejected.
func TestBipolarSaveFooter(t *testing.T) {
	bm := trainedBipolar(t, 192)
	dir := t.TempDir()
	sealed := filepath.Join(dir, "model.hdb")
	if err := bm.Save(sealed); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[len(raw)-8:len(raw)-4]) != "HCRC" {
		t.Fatalf("saved bipolar file lacks the HCRC integrity footer")
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantCRC bool // expect *ChecksumError specifically
		wantErr bool
	}{
		{"intact", func(b []byte) []byte { return b }, false, false},
		{"legacy-footerless", func(b []byte) []byte { return b[:len(b)-8] }, false, true},
		{"payload-flip", func(b []byte) []byte { b[9] ^= 0x40; return b }, true, true},
		// A flipped class bit under a cut footer: the payload still parses,
		// so only the missing footer can give it away.
		{"word-flip-footerless", func(b []byte) []byte { b[len(b)-9] ^= 0x01; return b[:len(b)-8] }, false, true},
		{"footer-flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, true, true},
		{"trailing-after-footer", func(b []byte) []byte { return append(b, 0xEE) }, false, true},
		{"trailing-after-legacy", func(b []byte) []byte { return append(b[:len(b)-8], 0xEE, 0xEE) }, false, true},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-64] }, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := append([]byte(nil), raw...)
			path := filepath.Join(dir, tc.name+".hdb")
			if err := os.WriteFile(path, tc.mutate(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := LoadBipolarModel(path)
			if tc.wantErr {
				if err == nil {
					t.Fatal("corrupted, padded or footerless file accepted")
				}
				var ce *ChecksumError
				if tc.wantCRC && !errors.As(err, &ce) {
					t.Fatalf("error %v (%T) is not a *ChecksumError", err, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Dim != bm.Dim || got.K() != bm.K() {
				t.Fatal("round trip changed dims")
			}
			for c := range bm.Words {
				for w := range bm.Words[c] {
					if got.Words[c][w] != bm.Words[c][w] {
						t.Fatalf("class %d word %d changed in round trip", c, w)
					}
				}
			}
		})
	}
}

// TestLoadBipolarRejectsLengthMismatch: the words-per-vector payload check
// fires before any n·d allocation happens, with exact numbers in the error.
func TestLoadBipolarRejectsLengthMismatch(t *testing.T) {
	bm := trainedBipolar(t, 128)
	path := filepath.Join(t.TempDir(), "model.hdb")
	if err := bm.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[:len(raw)-8]
	// Reseal each cut or padded payload so only the length check can fire.
	resealed := func(name string, body []byte) error {
		bad := filepath.Join(t.TempDir(), name+".hdb")
		if err := os.WriteFile(bad, withFooter(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadBipolarModel(bad)
		return err
	}
	for _, cut := range []int{1, 7, 8, 64} {
		err := resealed("cut", payload[:len(payload)-cut])
		if err == nil || !strings.Contains(err.Error(), "bipolar payload") {
			t.Fatalf("payload short by %d bytes: got %v, want the length error", cut, err)
		}
	}
	for _, pad := range []int{1, 8} {
		body := append(append([]byte(nil), payload...), make([]byte, pad)...)
		err := resealed("padded", body)
		if err == nil || !strings.Contains(err.Error(), "bipolar payload") {
			t.Fatalf("payload padded by %d bytes: got %v, want the length error", pad, err)
		}
	}
	// A header that advertises a huge model over a tiny payload must be
	// rejected by the length check, not attempted.
	head := append([]byte(nil), payload[:17]...)
	binary.LittleEndian.PutUint32(head[5:9], 1<<20)   // n
	binary.LittleEndian.PutUint32(head[9:13], 1<<24)  // d
	binary.LittleEndian.PutUint32(head[13:17], 1<<16) // k
	huge := filepath.Join(t.TempDir(), "huge.hdb")
	if err := os.WriteFile(huge, withFooter(head), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBipolarModel(huge); err == nil || !strings.Contains(err.Error(), "bipolar payload") {
		t.Fatalf("huge-header tiny-payload file: got %v, want the length error", err)
	}
}

// TestPackSignsTailWord: when Dim % 64 != 0, stray high bits in the last
// word must never change similarity — PackSignsInto clears them, and
// hammingAgreement masks them even if a caller left them set.
func TestPackSignsTailWord(t *testing.T) {
	for _, dim := range []int{1, 63, 65, 100, 130, 191} {
		xs := make([]float32, dim)
		r := rng.New(uint64(dim))
		for i := range xs {
			xs[i] = float32(r.Uint64()%512)/256 - 1
		}
		packed := packSigns(xs)
		words := wordsPerVector(dim)
		if rem := dim % 64; rem != 0 {
			if hi := packed[words-1] >> uint(rem); hi != 0 {
				t.Fatalf("dim %d: PackSignsInto left stray high bits %b", dim, hi)
			}
		}
		// Setting every unused high bit must not change agreement against
		// any other vector.
		dirty := append([]uint64(nil), packed...)
		if rem := dim % 64; rem != 0 {
			dirty[words-1] |= ^(uint64(1)<<uint(rem) - 1)
		}
		other := packSigns(xs[:dim]) // self-comparison plus a shifted variant
		if a, b := hammingAgreement(packed, other, dim), hammingAgreement(dirty, other, dim); a != b {
			t.Fatalf("dim %d: stray tail bits changed agreement %d -> %d", dim, a, b)
		}
		if got := hammingAgreement(dirty, dirty, dim); got != dim {
			t.Fatalf("dim %d: dirty self-agreement %d", dim, got)
		}
	}
}

// TestBipolarPackedVsFloatPredict: across random models (including
// non-multiple-of-64 dims), classifying the packed encoding must agree
// with sign-thresholding the float encoding — Predict is the packed path,
// and the reference below recomputes it from first principles.
func TestBipolarPackedVsFloatPredict(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 8; trial++ {
		n := 4 + int(r.Uint64()%12)
		d := 65 + int(r.Uint64()%200)
		k := 2 + int(r.Uint64()%5)
		enc := NewEncoder(n, d, trial%2 == 0, rng.New(uint64(100+trial)))
		m := NewModel(enc, k)
		for i := range m.Classes.F32 {
			m.Classes.F32[i] = float32(r.Uint64()%512)/256 - 1
		}
		bm := m.Binarize()
		x := make([]float32, n)
		for probe := 0; probe < 20; probe++ {
			for i := range x {
				x[i] = float32(r.Uint64()%512)/256 - 1
			}
			// Reference: float encode, sign to ±1, count sign agreements
			// against the float class rows directly.
			e := make([]float32, d)
			enc.Encode(e, x)
			best, bestAgree := 0, -1
			for c := 0; c < k; c++ {
				row := m.Classes.Row(c)
				agree := 0
				for j := 0; j < d; j++ {
					if (e[j] > 0) == (row[j] > 0) {
						agree++
					}
				}
				if agree > bestAgree {
					best, bestAgree = c, agree
				}
			}
			if got := bm.Predict(x); got != best {
				t.Fatalf("trial %d probe %d (n=%d d=%d k=%d): packed Predict %d, float reference %d",
					trial, probe, n, d, k, got, best)
			}
		}
	}
}

// FuzzLoadBipolarModel: arbitrary bytes must either parse into a model
// that saves and reloads identically, or fail cleanly — never panic or
// over-allocate on a lying header. Each input is loaded twice: as given,
// where only a file ending in its footer may load, and resealed with a
// valid footer, so the header, length and allocation checks behind the
// checksum are fuzzed too (a CRC32 footer does not vouch for its writer).
func FuzzLoadBipolarModel(f *testing.F) {
	dir := f.TempDir()
	seedModel := func(dim int) []byte {
		train, _ := synthTrainTest(f, 8, 120, 3, 704)
		m, _, err := Train(train, nil, TrainConfig{Dim: dim, Epochs: 1, LearningRate: 1, Nonlinear: true, Seed: 5})
		if err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(dir, "seed.hdb")
		if err := m.Binarize().Save(path); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	sealed := seedModel(96)
	payload := sealed[:len(sealed)-8]
	lying := append([]byte(nil), payload[:17]...)
	binary.LittleEndian.PutUint32(lying[5:9], 1<<20)   // n
	binary.LittleEndian.PutUint32(lying[9:13], 1<<24)  // d
	binary.LittleEndian.PutUint32(lying[13:17], 1<<16) // k
	f.Add(sealed)
	f.Add(payload) // footerless: rejected as given, parses resealed
	f.Add(append(append([]byte(nil), payload...), 0xEE))
	f.Add(lying)
	f.Add(sealed[:9])
	f.Add([]byte("HDB1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		load := func(raw []byte) *BipolarModel {
			path := filepath.Join(t.TempDir(), "fuzz.hdb")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Skip()
			}
			bm, err := LoadBipolarModel(path)
			if err != nil {
				return nil
			}
			// Anything that parses must re-save and reload bit-identically.
			again := filepath.Join(t.TempDir(), "again.hdb")
			if err := bm.Save(again); err != nil {
				t.Fatalf("parsed model fails to save: %v", err)
			}
			back, err := LoadBipolarModel(again)
			if err != nil {
				t.Fatalf("re-saved model fails to load: %v", err)
			}
			if back.Dim != bm.Dim || back.K() != bm.K() {
				t.Fatal("round trip changed dims")
			}
			return bm
		}
		if load(data) != nil && (len(data) < crcFooterLen || string(data[len(data)-crcFooterLen:len(data)-4]) != crcMagic) {
			t.Fatal("input without the integrity footer accepted")
		}
		load(withFooter(data))
	})
}
