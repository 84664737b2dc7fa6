package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"hdcedge/internal/rng"
)

func TestShapeElems(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 1},
		{Shape{5}, 5},
		{Shape{3, 4}, 12},
		{Shape{2, 3, 4}, 24},
		{Shape{0, 7}, 0},
	}
	for _, c := range cases {
		if got := c.s.Elems(); got != c.want {
			t.Errorf("%v.Elems() = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqual(t *testing.T) {
	if !(Shape{2, 3}).Equal(Shape{2, 3}) {
		t.Error("equal shapes reported unequal")
	}
	if (Shape{2, 3}).Equal(Shape{3, 2}) {
		t.Error("unequal shapes reported equal")
	}
	if (Shape{2}).Equal(Shape{2, 1}) {
		t.Error("different ranks reported equal")
	}
}

func TestShapeCloneIndependent(t *testing.T) {
	s := Shape{1, 2}
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestNewAllocates(t *testing.T) {
	for _, dt := range []DType{Float32, Int8, Int32, UInt8} {
		tn := New(dt, 2, 3)
		if tn.Elems() != 6 {
			t.Errorf("%v: elems %d", dt, tn.Elems())
		}
		if tn.Bytes() != 6*dt.Size() {
			t.Errorf("%v: bytes %d", dt, tn.Bytes())
		}
	}
}

func TestFromFloat32PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	FromFloat32([]float32{1, 2, 3}, 2, 2)
}

func TestCloneDeep(t *testing.T) {
	a := FromFloat32([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.F32[0] = 99
	if a.F32[0] != 1 {
		t.Error("Clone shares float data")
	}
	q := QuantParams{Scale: 0.5, ZeroPoint: 3}
	c := fromInt8([]int8{1, 2}, &q, 2)
	d := c.Clone()
	d.Quant.Scale = 9
	if c.Quant.Scale != 0.5 {
		t.Error("Clone shares quant params")
	}
}

func TestAtDequantizes(t *testing.T) {
	q := QuantParams{Scale: 0.5, ZeroPoint: 2}
	tn := fromInt8([]int8{4}, &q, 1)
	if got := tn.At(0); got != 1.0 {
		t.Errorf("At = %v, want 1.0", got)
	}
}

func TestRowViews(t *testing.T) {
	tn := FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r1 := tn.Row(1)
	if r1[0] != 4 || r1[2] != 6 {
		t.Errorf("Row(1) = %v", r1)
	}
	r1[0] = 40
	if tn.F32[3] != 40 {
		t.Error("Row is not a view")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromFloat32([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(Float32, 2, 2)
	MatMul(c, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.F32[i] != w {
			t.Fatalf("c[%d] = %v, want %v", i, c.F32[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	const n = 17
	a := New(Float32, n, n)
	id := New(Float32, n, n)
	for i := 0; i < n; i++ {
		id.F32[i*n+i] = 1
		for j := 0; j < n; j++ {
			a.F32[i*n+j] = float32(i*31+j) * 0.25
		}
	}
	c := New(Float32, n, n)
	MatMul(c, a, id)
	for i := range c.F32 {
		if c.F32[i] != a.F32[i] {
			t.Fatalf("A*I differs at %d: %v vs %v", i, c.F32[i], a.F32[i])
		}
	}
}

func TestMatMulLargeMatchesNaive(t *testing.T) {
	const m, k, n = 33, 129, 47
	a := New(Float32, m, k)
	b := New(Float32, k, n)
	for i := range a.F32 {
		a.F32[i] = float32((i*2654435761)%17) - 8
	}
	for i := range b.F32 {
		b.F32[i] = float32((i*40503)%13) - 6
	}
	c := New(Float32, m, n)
	MatMul(c, a, b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for kk := 0; kk < k; kk++ {
				want += float64(a.F32[i*k+kk]) * float64(b.F32[kk*n+j])
			}
			got := float64(c.F32[i*n+j])
			if math.Abs(got-want) > 1e-3*math.Max(1, math.Abs(want)) {
				t.Fatalf("c[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a := New(Float32, 2, 3)
	b := New(Float32, 4, 2)
	c := New(Float32, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on inner-dim mismatch")
		}
	}()
	MatMul(c, a, b)
}

func TestMatVec(t *testing.T) {
	a := FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	dst := make([]float32, 2)
	MatVec(dst, a, []float32{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MatVec = %v", dst)
	}
}

func TestVecMat(t *testing.T) {
	a := FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	dst := make([]float32, 3)
	VecMat(dst, []float32{1, 2}, a)
	if dst[0] != 9 || dst[1] != 12 || dst[2] != 15 {
		t.Fatalf("VecMat = %v", dst)
	}
}

func TestVecMatSkipsZeros(t *testing.T) {
	// Zero inputs (masked features under bagging) must contribute nothing.
	a := FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	dst := make([]float32, 3)
	VecMat(dst, []float32{0, 2}, a)
	if dst[0] != 8 || dst[1] != 10 || dst[2] != 12 {
		t.Fatalf("VecMat = %v", dst)
	}
}

func TestTransposeFloat(t *testing.T) {
	a := FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if !at.Shape.Equal(Shape{3, 2}) {
		t.Fatalf("shape %v", at.Shape)
	}
	want := []float32{1, 4, 2, 5, 3, 6}
	for i, w := range want {
		if at.F32[i] != w {
			t.Fatalf("at[%d] = %v, want %v", i, at.F32[i], w)
		}
	}
}

func TestTransposeTwiceIsIdentity(t *testing.T) {
	a := New(Float32, 5, 9)
	for i := range a.F32 {
		a.F32[i] = float32(i)
	}
	b := Transpose(Transpose(a))
	for i := range a.F32 {
		if a.F32[i] != b.F32[i] {
			t.Fatalf("double transpose differs at %d", i)
		}
	}
}

func TestTransposeInt8KeepsQuant(t *testing.T) {
	q := QuantParams{Scale: 2, ZeroPoint: 1}
	a := fromInt8([]int8{1, 2, 3, 4}, &q, 2, 2)
	at := Transpose(a)
	if at.Quant == nil || at.Quant.Scale != 2 {
		t.Fatal("Transpose dropped quant params")
	}
	if at.I8[1] != 3 {
		t.Fatalf("int8 transpose wrong: %v", at.I8)
	}
}

func TestTanh(t *testing.T) {
	a := FromFloat32([]float32{0, 1, -1, 10}, 4)
	TanhSlice(a.F32)
	if a.F32[0] != 0 {
		t.Errorf("tanh(0) = %v", a.F32[0])
	}
	if math.Abs(float64(a.F32[1])-math.Tanh(1)) > 1e-6 {
		t.Errorf("tanh(1) = %v", a.F32[1])
	}
	if a.F32[2] != -a.F32[1] {
		t.Error("tanh not odd")
	}
	if a.F32[3] < 0.9999 {
		t.Errorf("tanh(10) = %v", a.F32[3])
	}
}

func TestAxpyDotNorm(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	Axpy(2, x, y)
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("Axpy = %v", y)
	}
	if d := Dot(x, x); d != 14 {
		t.Fatalf("Dot = %v", d)
	}
	if n := Norm([]float32{3, 4}); n != 5 {
		t.Fatalf("Norm = %v", n)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if c := CosineSimilarity([]float32{1, 0}, []float32{1, 0}); math.Abs(float64(c)-1) > 1e-6 {
		t.Errorf("parallel cosine = %v", c)
	}
	if c := CosineSimilarity([]float32{1, 0}, []float32{0, 1}); math.Abs(float64(c)) > 1e-6 {
		t.Errorf("orthogonal cosine = %v", c)
	}
	if c := CosineSimilarity([]float32{0, 0}, []float32{1, 1}); c != 0 {
		t.Errorf("zero-vector cosine = %v", c)
	}
}

func TestArgMax(t *testing.T) {
	if i := ArgMax([]float32{1, 5, 3}); i != 1 {
		t.Errorf("ArgMax = %d", i)
	}
	if i := ArgMax([]float32{2, 2}); i != 0 {
		t.Errorf("tie-break ArgMax = %d", i)
	}
	if i := ArgMax(nil); i != -1 {
		t.Errorf("empty ArgMax = %d", i)
	}
}

func TestHStack(t *testing.T) {
	a := FromFloat32([]float32{1, 2, 3, 4}, 2, 2)
	b := FromFloat32([]float32{5, 6, 7, 8, 9, 10}, 2, 3)
	s := HStack(a, b)
	if !s.Shape.Equal(Shape{2, 5}) {
		t.Fatalf("shape %v", s.Shape)
	}
	want := []float32{1, 2, 5, 6, 7, 3, 4, 8, 9, 10}
	for i, w := range want {
		if s.F32[i] != w {
			t.Fatalf("s[%d] = %v, want %v", i, s.F32[i], w)
		}
	}
}

func TestHStackRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched rows")
		}
	}()
	HStack(New(Float32, 2, 2), New(Float32, 3, 2))
}

func TestScale(t *testing.T) {
	a := FromFloat32([]float32{1, -2}, 2)
	Scale(a, -3)
	if a.F32[0] != -3 || a.F32[1] != 6 {
		t.Fatalf("Scale = %v", a.F32)
	}
}

func TestDTypeString(t *testing.T) {
	if Float32.String() != "float32" || Int8.String() != "int8" {
		t.Error("DType String wrong")
	}
	if DType(99).String() == "" {
		t.Error("unknown DType should still render")
	}
}

// Property: MatMul row i equals VecMat of row i bit for bit (one kernel).
func TestQuickMatMulVecMatConsistent(t *testing.T) {
	f := func(seed uint64, m8, k8, n8 uint8) bool {
		m := int(m8%6) + 1
		k := int(k8%20) + 1
		n := int(n8%20) + 1
		r := rng.New(seed)
		a := New(Float32, m, k)
		b := New(Float32, k, n)
		r.FillNormal(a.F32)
		r.FillNormal(b.F32)
		c := New(Float32, m, n)
		MatMul(c, a, b)
		row := make([]float32, n)
		for i := 0; i < m; i++ {
			VecMat(row, a.Row(i), b)
			for j := 0; j < n; j++ {
				if math.Float32bits(c.F32[i*n+j]) != math.Float32bits(row[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: HStack of row slices recombines to the original matrix.
func TestQuickStackRoundTrip(t *testing.T) {
	f := func(seed uint64, r8, c8 uint8) bool {
		rows := int(r8%5) + 1
		cols1 := int(c8%6) + 1
		cols2 := int(c8%4) + 1
		r := newTestRNG(seed)
		a := New(Float32, rows, cols1)
		b := New(Float32, rows, cols2)
		for i := range a.F32 {
			a.F32[i] = float32(r() % 100)
		}
		for i := range b.F32 {
			b.F32[i] = float32(r() % 100)
		}
		s := HStack(a, b)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols1; j++ {
				if s.F32[i*(cols1+cols2)+j] != a.F32[i*cols1+j] {
					return false
				}
			}
			for j := 0; j < cols2; j++ {
				if s.F32[i*(cols1+cols2)+cols1+j] != b.F32[i*cols2+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// newTestRNG is a tiny deterministic generator for property tests that
// avoids importing internal/rng (which itself depends on nothing here,
// but keeping tensor's tests self-contained documents the layering).
func newTestRNG(seed uint64) func() uint64 {
	state := seed | 1
	return func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
}

// fromInt8 wraps data (not copied) in an int8 tensor.
func fromInt8(data []int8, q *QuantParams, shape ...int) *Tensor {
	return &Tensor{DType: Int8, Shape: Shape(shape), I8: data, Quant: q}
}
