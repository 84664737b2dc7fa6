// Command hdc-train trains an HDC classifier and saves it.
//
// Usage:
//
//	hdc-train -data isolet.bin -out model.hdm [-dim 10000] [-epochs 20]
//	          [-device] [-faults "link=0.05,reset=0.005"] [-fault-seed 1]
//	          [-bagging] [-submodels 4] [-iters 6] [-alpha 0.6]
//
// With -device, training-set encoding runs on the simulated Edge TPU (the
// co-design path); otherwise everything runs on the host CPU. With -faults,
// the accelerator is driven under a seeded fault plan and the resilient
// runtime (retry, reload, host fallback) keeps the run alive, reporting what
// recovery cost. With -bagging, the bootstrap-aggregating trainer produces a
// fused model.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hdcedge/internal/bagging"
	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/pipeline"
)

func main() {
	data := flag.String("data", "", "training dataset (binary or .csv)")
	out := flag.String("out", "", "output model path (required)")
	dim := flag.Int("dim", hdc.DefaultDim, "hypervector width d")
	epochs := flag.Int("epochs", 20, "training iterations")
	lr := flag.Float64("lr", 1, "learning rate λ")
	linear := flag.Bool("linear", false, "use linear (no tanh) encoding")
	seed := flag.Uint64("seed", 1, "random seed")
	device := flag.Bool("device", false, "encode on the simulated Edge TPU")
	faults := flag.String("faults", "", "with -device: fault plan, e.g. \"link=0.05,reset=0.005,seu=1e-7\"")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault-injection stream")
	useBagging := flag.Bool("bagging", false, "train with bootstrap aggregating")
	subModels := flag.Int("submodels", 4, "bagging: sub-model count M")
	iters := flag.Int("iters", 6, "bagging: sub-model iterations I'")
	alpha := flag.Float64("alpha", 0.6, "bagging: dataset sampling ratio α")
	beta := flag.Float64("beta", 1.0, "bagging: feature sampling ratio β")
	flag.Parse()

	if *data == "" || *out == "" {
		fail("need -data and -out")
	}
	train, err := loadDataset(*data)
	if err != nil {
		fail(err.Error())
	}
	fmt.Printf("training on %s: %d samples, %d features, %d classes\n",
		*data, train.Samples(), train.Features(), train.Classes)

	start := time.Now()
	var model *hdc.Model
	switch {
	case *useBagging:
		cfg := bagging.Config{
			SubModels:    *subModels,
			Dim:          *dim,
			Iterations:   *iters,
			DatasetRatio: *alpha,
			FeatureRatio: *beta,
			LearningRate: float32(*lr),
			Nonlinear:    !*linear,
			Seed:         *seed,
		}
		ens, stats, err := bagging.Train(train, cfg)
		if err != nil {
			fail(err.Error())
		}
		model = ens.Fuse()
		fmt.Printf("bagging: %d sub-models of width %d, %d total updates\n",
			len(ens.Subs), cfg.SubDim(), stats.TotalUpdates())
		if oob, evaluated := ens.OOBAccuracy(train); evaluated > 0 {
			fmt.Printf("out-of-bag accuracy estimate: %.3f (%d samples evaluable)\n", oob, evaluated)
		}
	case *device:
		tc := hdc.TrainConfig{
			Dim: *dim, Epochs: *epochs, LearningRate: float32(*lr),
			Nonlinear: !*linear, Seed: *seed,
		}
		plan, err := edgetpu.ParseFaultPlan(*faults, *faultSeed)
		if err != nil {
			fail(err.Error())
		}
		res, report, err := pipeline.TrainOnDeviceResilient(pipeline.EdgeTPU(), train, tc, plan, pipeline.DefaultRecoveryPolicy())
		if err != nil {
			fail(err.Error())
		}
		if *faults != "" {
			fmt.Println(report)
		}
		model = res.Model
		fmt.Printf("device encoding: %v simulated accelerator time (%d MMACs)\n",
			res.DeviceTime.Total().Round(time.Microsecond), res.DeviceTime.MACs/1e6)
	default:
		m, stats, err := hdc.Train(train, nil, hdc.TrainConfig{
			Dim: *dim, Epochs: *epochs, LearningRate: float32(*lr),
			Nonlinear: !*linear, Seed: *seed,
		})
		if err != nil {
			fail(err.Error())
		}
		model = m
		last := stats.Epochs[len(stats.Epochs)-1]
		fmt.Printf("final training accuracy: %.3f\n", last.TrainAccuracy)
	}
	fmt.Printf("wall-clock training time: %v\n", time.Since(start).Round(time.Millisecond))

	if err := model.Save(*out); err != nil {
		fail(err.Error())
	}
	fmt.Printf("wrote %s (d=%d, k=%d)\n", *out, model.Dim(), model.K())
}

func loadDataset(path string) (*dataset.Dataset, error) {
	if len(path) > 4 && path[len(path)-4:] == ".csv" {
		return dataset.LoadCSV(path, 0)
	}
	return dataset.LoadBinary(path)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "hdc-train:", msg)
	os.Exit(2)
}
