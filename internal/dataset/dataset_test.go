package dataset

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"hdcedge/internal/rng"
)

func TestCatalogMatchesTableI(t *testing.T) {
	want := map[string][3]int{ // samples, features, classes
		"FACE":   {80854, 608, 2},
		"ISOLET": {7797, 617, 26},
		"UCIHAR": {7667, 561, 12},
		"MNIST":  {60000, 784, 10},
		"PAMAP2": {32768, 27, 5},
	}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(cat), len(want))
	}
	for _, s := range cat {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected dataset %q", s.Name)
		}
		if s.Samples != w[0] || s.Features != w[1] || s.Classes != w[2] {
			t.Fatalf("%s: %d×%d×%d, want %v", s.Name, s.Samples, s.Features, s.Classes, w)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s spec invalid: %v", s.Name, err)
		}
	}
}

func TestCatalogSpecLookup(t *testing.T) {
	if _, err := CatalogSpec("MNIST"); err != nil {
		t.Fatal(err)
	}
	if _, err := CatalogSpec("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestGenerateShapeAndLabels(t *testing.T) {
	spec, _ := CatalogSpec("PAMAP2")
	ds, err := Generate(spec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Samples() != 1000 || ds.Features() != 27 {
		t.Fatalf("shape %d×%d", ds.Samples(), ds.Features())
	}
	for _, y := range ds.Y {
		if y < 0 || y >= ds.Classes {
			t.Fatalf("label %d out of range", y)
		}
	}
	counts := classCounts(ds)
	for c, n := range counts {
		if n < 150 || n > 250 {
			t.Fatalf("class %d has %d samples of 1000; want near-balanced", c, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := SyntheticSpec(40, 500, 4, 7)
	a, err := Generate(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X.F32 {
		if a.X.F32[i] != b.X.F32[i] {
			t.Fatalf("regeneration differs at %d", i)
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(SyntheticSpec(20, 100, 3, 1), 0)
	b, _ := Generate(SyntheticSpec(20, 100, 3, 2), 0)
	same := 0
	for i := range a.X.F32 {
		if a.X.F32[i] == b.X.F32[i] {
			same++
		}
	}
	if same > len(a.X.F32)/100 {
		t.Fatalf("different seeds share %d/%d values", same, len(a.X.F32))
	}
}

func TestGenerateNormalized(t *testing.T) {
	ds, err := Generate(SyntheticSpec(30, 2000, 4, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	n, f := ds.Samples(), ds.Features()
	for j := 0; j < f; j++ {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(ds.X.Row(i)[j])
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if math.Abs(mean) > 0.05 {
			t.Fatalf("feature %d mean %v", j, mean)
		}
		if math.Abs(variance-1) > 0.1 {
			t.Fatalf("feature %d variance %v", j, variance)
		}
	}
}

func TestGenerateClassStructureLearnable(t *testing.T) {
	// A nearest-class-centroid classifier on the raw features must beat
	// chance by a wide margin: the generator has to produce learnable
	// class structure.
	ds, err := Generate(SyntheticSpec(40, 2000, 4, 11), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := ds.Features()
	cent := make([][]float64, ds.Classes)
	counts := make([]int, ds.Classes)
	for c := range cent {
		cent[c] = make([]float64, f)
	}
	half := ds.Samples() / 2
	for i := 0; i < half; i++ {
		c := ds.Y[i]
		counts[c]++
		for j, v := range ds.X.Row(i) {
			cent[c][j] += float64(v)
		}
	}
	for c := range cent {
		for j := range cent[c] {
			cent[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := half; i < ds.Samples(); i++ {
		best, bestD := -1, math.Inf(1)
		for c := range cent {
			var d float64
			for j, v := range ds.X.Row(i) {
				diff := float64(v) - cent[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == ds.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(ds.Samples()-half)
	if acc < 0.5 {
		t.Fatalf("centroid accuracy %.2f; chance is 0.25 — structure too weak", acc)
	}
}

func TestGenerateRejectsInvalidSpec(t *testing.T) {
	bad := SyntheticSpec(10, 100, 3, 1)
	bad.Classes = 1
	if _, err := Generate(bad, 0); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSplit(t *testing.T) {
	ds, _ := Generate(SyntheticSpec(10, 1000, 4, 5), 0)
	train, test := ds.Split(0.2, rng.New(9))
	if test.Samples() != 200 || train.Samples() != 800 {
		t.Fatalf("split %d/%d", train.Samples(), test.Samples())
	}
	// Splits must preserve the multiset of labels.
	total := make([]int, ds.Classes)
	for _, y := range append(append([]int{}, train.Y...), test.Y...) {
		total[y]++
	}
	orig := classCounts(ds)
	for c := range orig {
		if total[c] != orig[c] {
			t.Fatalf("class %d count changed: %d vs %d", c, total[c], orig[c])
		}
	}
}

func TestSubset(t *testing.T) {
	ds, _ := Generate(SyntheticSpec(6, 50, 2, 5), 0)
	sub := ds.Subset([]int{3, 7, 7})
	if sub.Samples() != 3 {
		t.Fatalf("subset size %d", sub.Samples())
	}
	for j := range sub.X.Row(1) {
		if sub.X.Row(1)[j] != sub.X.Row(2)[j] {
			t.Fatal("repeated index rows differ")
		}
		if sub.X.Row(0)[j] != ds.X.Row(3)[j] {
			t.Fatal("subset row mismatch")
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	ds, _ := Generate(SyntheticSpec(8, 64, 3, 5), 0)
	path := filepath.Join(t.TempDir(), "ds.bin")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || got.Classes != ds.Classes || got.Samples() != ds.Samples() {
		t.Fatal("metadata mismatch")
	}
	for i := range ds.X.F32 {
		if got.X.F32[i] != ds.X.F32[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
	for i := range ds.Y {
		if got.Y[i] != ds.Y[i] {
			t.Fatal("labels mismatch")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds, _ := Generate(SyntheticSpec(5, 20, 3, 6), 0)
	path := filepath.Join(t.TempDir(), "ds.csv")
	if err := ds.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(path, ds.Classes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples() != ds.Samples() || got.Features() != ds.Features() {
		t.Fatalf("shape %d×%d", got.Samples(), got.Features())
	}
	for i := range ds.X.F32 {
		if math.Abs(float64(got.X.F32[i]-ds.X.F32[i])) > 1e-5 {
			t.Fatalf("csv data mismatch at %d: %v vs %v", i, got.X.F32[i], ds.X.F32[i])
		}
	}
}

func TestLoadCSVInfersClasses(t *testing.T) {
	ds, _ := Generate(SyntheticSpec(4, 30, 3, 7), 0)
	path := filepath.Join(t.TempDir(), "ds.csv")
	if err := ds.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Classes != 3 {
		t.Fatalf("inferred %d classes", got.Classes)
	}
}

func TestLoadBinaryRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(path, []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBinary(path); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSplitStratifiedPreservesDistribution(t *testing.T) {
	ds, _ := Generate(SyntheticSpec(10, 1000, 4, 20), 0)
	train, test := ds.SplitStratified(0.2, rng.New(21))
	if train.Samples()+test.Samples() != ds.Samples() {
		t.Fatalf("split loses samples: %d + %d", train.Samples(), test.Samples())
	}
	orig := classCounts(ds)
	testCounts := classCounts(test)
	for c := range orig {
		want := int(float64(orig[c]) * 0.2)
		if testCounts[c] < want-1 || testCounts[c] > want+1 {
			t.Fatalf("class %d: %d test samples, want ~%d", c, testCounts[c], want)
		}
	}
}

func TestSplitStratifiedTinyClasses(t *testing.T) {
	// Hand-build a set with a 2-member class; both splits must see it.
	ds, _ := Generate(SyntheticSpec(4, 40, 2, 22), 0)
	// Relabel two samples as a third class.
	ds.Classes = 3
	ds.Y[0], ds.Y[1] = 2, 2
	train, test := ds.SplitStratified(0.2, rng.New(23))
	if classCounts(train)[2] != 1 || classCounts(test)[2] != 1 {
		t.Fatalf("tiny class split train=%d test=%d, want 1/1",
			classCounts(train)[2], classCounts(test)[2])
	}
}

// Property-like sweep: corrupted binary datasets never panic the loader.
func TestLoadBinaryCorruptionNeverPanics(t *testing.T) {
	ds, _ := Generate(SyntheticSpec(6, 32, 3, 30), 0)
	path := filepath.Join(t.TempDir(), "ds.bin")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(raw); pos += 7 {
		for _, val := range []byte{0x00, 0xFF, 0x7F} {
			mut := append([]byte(nil), raw...)
			mut[pos] = val
			mutPath := filepath.Join(t.TempDir(), "mut.bin")
			if err := os.WriteFile(mutPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("loader panicked for corruption at %d: %v", pos, r)
					}
				}()
				_, _ = LoadBinary(mutPath)
			}()
		}
	}
}

// classCounts returns a histogram of d's labels.
func classCounts(d *Dataset) []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}
