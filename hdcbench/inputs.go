package main

import (
	"fmt"

	"hdcedge/internal/dataset"
	"hdcedge/internal/rng"
)

// streams holds every random choice of a run, all derived from the
// benchmark seed: which generated rows are held out, the training seeds,
// the order requests visit the held-out rows (and so which rows send
// feedback), and the online trainer's seed. The dataset generators
// themselves are the fixed Table I catalog entries.
type streams struct {
	split, train, bag, order, online uint64
}

func newStreams(seed uint64) streams {
	r := rng.New(seed)
	return streams{split: r.Uint64(), train: r.Uint64(), bag: r.Uint64(), order: r.Uint64(), online: r.Uint64()}
}

// requestOrder returns the held-out row request i sends, for i < rows;
// request i ≥ rows wraps to order[i % rows].
func requestOrder(s streams, rows int) []int {
	return rng.New(s.order).Perm(rows)
}

// sendsFeedback reports whether request i reports its label to the online
// trainer: every k-th request by index, never sampled, so the feedback
// stream is a pure function of the seed and the number of requests.
func sendsFeedback(i, k int) bool { return i%k == 0 }

// feedbackRows returns the held-out rows of the first m feedback requests.
func feedbackRows(order []int, k, m int) []int {
	rows := make([]int, 0, m)
	for i := 0; len(rows) < m; i++ {
		if sendsFeedback(i, k) {
			rows = append(rows, order[i%len(order)])
		}
	}
	return rows
}

// splitCatalog generates the first train+held rows of a catalog dataset
// and splits them by the seed.
func splitCatalog(name string, s streams, train, held int) (tr, te *dataset.Dataset, err error) {
	spec, err := dataset.CatalogSpec(name)
	if err != nil {
		return nil, nil, err
	}
	ds, err := dataset.Generate(spec, train+held)
	if err != nil {
		return nil, nil, err
	}
	if ds.Samples() != train+held {
		return nil, nil, fmt.Errorf("%s: generated %d rows, want %d", name, ds.Samples(), train+held)
	}
	perm := rng.New(s.split).Perm(train + held)
	return ds.Subset(perm[:train]), ds.Subset(perm[train:]), nil
}
