// Package dataset provides deterministic synthetic stand-ins for the five
// evaluation datasets of Table I, plus a parametric generator for the
// feature-count sweep of Fig 10.
//
// The real datasets are not redistributable inside this repository, so each
// catalog entry generates data with the paper's exact shape (samples ×
// features × classes) and with the statistical structure HDC learning
// dynamics depend on: every class is a mixture of several latent-space
// prototypes (so the classes are clustered but not linearly separable in
// general), lifted to the full feature dimension through a random linear
// map and perturbed with feature noise. Difficulty is controlled per
// dataset so that accuracy ranges resemble the paper's Fig 7.
package dataset

import (
	"fmt"
	"math"

	"hdcedge/internal/rng"
	"hdcedge/internal/tensor"
)

// Dataset is a labelled design matrix. X has shape [Samples, Features].
type Dataset struct {
	Name     string
	Classes  int
	X        *tensor.Tensor
	Y        []int
	Metadata Spec
}

// Samples returns the number of rows.
func (d *Dataset) Samples() int { return d.X.Shape[0] }

// Features returns the number of columns.
func (d *Dataset) Features() int { return d.X.Shape[1] }

// Spec describes one synthetic dataset.
type Spec struct {
	Name        string
	Samples     int
	Features    int
	Classes     int
	Description string

	// LatentDim is the dimensionality of the class-structure space the
	// observations are lifted from.
	LatentDim int
	// ModesPerClass is how many prototype clusters make up each class;
	// values above 1 make the classes non-linearly-separable.
	ModesPerClass int
	// ClusterSpread is the within-mode standard deviation relative to
	// the unit distance between prototypes.
	ClusterSpread float64
	// NoiseStd is additive observation noise in feature space.
	NoiseStd float64
	// Seed makes generation reproducible.
	Seed uint64
}

// Validate reports structural problems with a spec.
func (s Spec) Validate() error {
	switch {
	case s.Samples <= 0:
		return fmt.Errorf("dataset %s: non-positive sample count %d", s.Name, s.Samples)
	case s.Features <= 0:
		return fmt.Errorf("dataset %s: non-positive feature count %d", s.Name, s.Features)
	case s.Classes < 2:
		return fmt.Errorf("dataset %s: need at least 2 classes, got %d", s.Name, s.Classes)
	case s.LatentDim <= 0:
		return fmt.Errorf("dataset %s: non-positive latent dim %d", s.Name, s.LatentDim)
	case s.ModesPerClass <= 0:
		return fmt.Errorf("dataset %s: non-positive modes per class %d", s.Name, s.ModesPerClass)
	}
	return nil
}

// Catalog returns the five datasets of Table I with the paper's shapes.
func Catalog() []Spec {
	return []Spec{
		{
			Name: "FACE", Samples: 80854, Features: 608, Classes: 2,
			Description: "Facial images",
			LatentDim:   24, ModesPerClass: 4, ClusterSpread: 0.65, NoiseStd: 0.55, Seed: 0xFACE,
		},
		{
			Name: "ISOLET", Samples: 7797, Features: 617, Classes: 26,
			Description: "Speech Data",
			LatentDim:   40, ModesPerClass: 2, ClusterSpread: 0.60, NoiseStd: 0.50, Seed: 0x150,
		},
		{
			Name: "UCIHAR", Samples: 7667, Features: 561, Classes: 12,
			Description: "Human Activity Logs",
			LatentDim:   32, ModesPerClass: 3, ClusterSpread: 0.60, NoiseStd: 0.55, Seed: 0x11A2,
		},
		{
			Name: "MNIST", Samples: 60000, Features: 784, Classes: 10,
			Description: "Handwritten Digits",
			LatentDim:   30, ModesPerClass: 3, ClusterSpread: 0.60, NoiseStd: 0.50, Seed: 0x3157,
		},
		{
			Name: "PAMAP2", Samples: 32768, Features: 27, Classes: 5,
			Description: "Human Activity Logs",
			LatentDim:   12, ModesPerClass: 3, ClusterSpread: 0.55, NoiseStd: 0.45, Seed: 0x9A4A,
		},
	}
}

// CatalogSpec returns the catalog entry with the given name.
func CatalogSpec(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown catalog entry %q", name)
}

// SyntheticSpec returns a parametric dataset for scaling sweeps (Fig 10).
func SyntheticSpec(features, samples, classes int, seed uint64) Spec {
	return Spec{
		Name:     fmt.Sprintf("synthetic-n%d", features),
		Samples:  samples,
		Features: features,
		Classes:  classes,
		LatentDim: func() int {
			if features < 16 {
				return features
			}
			return 16
		}(),
		ModesPerClass: 2,
		ClusterSpread: 0.5,
		NoiseStd:      0.3,
		Seed:          seed,
	}
}

// Generate materializes the spec. maxSamples, when positive, caps the
// number of rows generated (functional experiments subsample the large
// catalog datasets; runtime models still use the full Table I counts).
func Generate(spec Spec, maxSamples int) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Samples
	if maxSamples > 0 && maxSamples < n {
		n = maxSamples
	}
	r := rng.New(spec.Seed)

	// Class prototypes: ModesPerClass latent centers per class, scaled so
	// inter-prototype distance is O(1) relative to ClusterSpread.
	nModes := spec.Classes * spec.ModesPerClass
	protos := make([][]float32, nModes)
	for i := range protos {
		p := make([]float32, spec.LatentDim)
		r.FillNormal(p)
		protos[i] = p
	}

	// Random lift from latent to feature space, shared by all samples.
	lift := tensor.New(tensor.Float32, spec.LatentDim, spec.Features)
	r.FillNormal(lift.F32)
	tensor.Scale(lift, float32(1.0/float64(spec.LatentDim))*4)

	ds := &Dataset{
		Name:     spec.Name,
		Classes:  spec.Classes,
		X:        tensor.New(tensor.Float32, n, spec.Features),
		Y:        make([]int, n),
		Metadata: spec,
	}
	z := make([]float32, spec.LatentDim)
	for i := 0; i < n; i++ {
		class := i % spec.Classes // balanced classes
		mode := r.Intn(spec.ModesPerClass)
		p := protos[class*spec.ModesPerClass+mode]
		for j := range z {
			z[j] = p[j] + float32(spec.ClusterSpread*r.NormFloat64())
		}
		row := ds.X.Row(i)
		tensor.VecMat(row, z, lift)
		for j := range row {
			row[j] += float32(spec.NoiseStd * r.NormFloat64())
		}
		ds.Y[i] = class
	}
	normalize(ds)
	// Shuffle rows so contiguous slices are class-balanced.
	r.Shuffle(n, func(a, b int) {
		ra, rb := ds.X.Row(a), ds.X.Row(b)
		for j := range ra {
			ra[j], rb[j] = rb[j], ra[j]
		}
		ds.Y[a], ds.Y[b] = ds.Y[b], ds.Y[a]
	})
	return ds, nil
}

// normalize standardizes each feature to zero mean, unit variance, then
// rescales rows into the range HDC encoding expects (features of O(1)).
func normalize(ds *Dataset) {
	n, f := ds.Samples(), ds.Features()
	if n == 0 {
		return
	}
	mean := make([]float64, f)
	m2 := make([]float64, f)
	for i := 0; i < n; i++ {
		row := ds.X.Row(i)
		for j, v := range row {
			mean[j] += float64(v)
			m2[j] += float64(v) * float64(v)
		}
	}
	inv := 1 / float64(n)
	std := make([]float64, f)
	for j := range mean {
		mean[j] *= inv
		variance := m2[j]*inv - mean[j]*mean[j]
		if variance < 1e-12 {
			variance = 1
		}
		std[j] = math.Sqrt(variance)
	}
	for i := 0; i < n; i++ {
		row := ds.X.Row(i)
		for j := range row {
			row[j] = float32((float64(row[j]) - mean[j]) / std[j])
		}
	}
}

// Split partitions the dataset into train and test parts; testFrac of the
// rows (rounded down, at least one when possible) go to the test set. The
// split is deterministic given r.
func (d *Dataset) Split(testFrac float64, r *rng.RNG) (train, test *Dataset) {
	n := d.Samples()
	nTest := int(float64(n) * testFrac)
	if nTest < 1 && n > 1 {
		nTest = 1
	}
	perm := r.Perm(n)
	test = d.subset(perm[:nTest])
	train = d.subset(perm[nTest:])
	return train, test
}

// Subset returns the rows at the given indices as a new dataset.
func (d *Dataset) Subset(idx []int) *Dataset { return d.subset(idx) }

func (d *Dataset) subset(idx []int) *Dataset {
	f := d.Features()
	out := &Dataset{
		Name:     d.Name,
		Classes:  d.Classes,
		X:        tensor.New(tensor.Float32, len(idx), f),
		Y:        make([]int, len(idx)),
		Metadata: d.Metadata,
	}
	for i, src := range idx {
		copy(out.X.Row(i), d.X.Row(src))
		out.Y[i] = d.Y[src]
	}
	return out
}

// WithNoise returns a copy of the dataset with i.i.d. Gaussian noise of
// the given standard deviation added to every feature. Because generated
// datasets are standardized, std is directly in units of feature standard
// deviations. It exercises the noise-tolerance claim HDC systems make.
func (d *Dataset) WithNoise(std float64, r *rng.RNG) *Dataset {
	out := &Dataset{
		Name:     d.Name,
		Classes:  d.Classes,
		X:        d.X.Clone(),
		Y:        append([]int(nil), d.Y...),
		Metadata: d.Metadata,
	}
	for i := range out.X.F32 {
		out.X.F32[i] += float32(std * r.NormFloat64())
	}
	return out
}

// SplitStratified partitions the dataset like Split but preserves the
// class distribution in both parts: testFrac of each class's samples
// (rounded down, at least one when the class has two or more) goes to the
// test set.
func (d *Dataset) SplitStratified(testFrac float64, r *rng.RNG) (train, test *Dataset) {
	byClass := make([][]int, d.Classes)
	for i, y := range d.Y {
		if y >= 0 && y < d.Classes {
			byClass[y] = append(byClass[y], i)
		}
	}
	var trainIdx, testIdx []int
	for _, members := range byClass {
		r.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
		nTest := int(float64(len(members)) * testFrac)
		if nTest < 1 && len(members) > 1 {
			nTest = 1
		}
		testIdx = append(testIdx, members[:nTest]...)
		trainIdx = append(trainIdx, members[nTest:]...)
	}
	// Shuffle the concatenated per-class runs so batches are mixed.
	r.Shuffle(len(trainIdx), func(a, b int) { trainIdx[a], trainIdx[b] = trainIdx[b], trainIdx[a] })
	r.Shuffle(len(testIdx), func(a, b int) { testIdx[a], testIdx[b] = testIdx[b], testIdx[a] })
	return d.subset(trainIdx), d.subset(testIdx)
}
