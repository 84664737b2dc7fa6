// Command hdc-infer classifies a dataset with a saved HDC model.
//
// Usage:
//
//	hdc-infer -model model.hdm -data test.bin [-device] [-batch 8]
//	          [-faults "link=0.05"] [-fault-seed 1] [-confusion]
//
// With -device, classification runs through the quantized wide-NN model on
// the simulated Edge TPU and the per-phase timing is reported; otherwise
// the float model runs on the host. With -faults, the device is driven under
// a seeded fault plan and the resilient runtime keeps the run alive.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
)

func main() {
	modelPath := flag.String("model", "", "saved model path (required)")
	data := flag.String("data", "", "dataset to classify (required)")
	device := flag.Bool("device", false, "run on the simulated Edge TPU")
	batch := flag.Int("batch", pipeline.DefaultInferBatch, "device invoke batch")
	confusion := flag.Bool("confusion", false, "print the confusion matrix and macro-F1")
	profile := flag.Bool("profile", false, "with -device: print the per-op execution profile")
	faults := flag.String("faults", "", "with -device: fault plan, e.g. \"link=0.05,seu=1e-6\"")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault-injection stream")
	flag.Parse()

	if *modelPath == "" || *data == "" {
		fail("need -model and -data")
	}
	model, err := hdc.LoadModel(*modelPath)
	if err != nil {
		fail(err.Error())
	}
	ds, err := loadDataset(*data)
	if err != nil {
		fail(err.Error())
	}
	if ds.Features() != model.Encoder.Features() {
		fail(fmt.Sprintf("dataset has %d features, model expects %d", ds.Features(), model.Encoder.Features()))
	}

	var preds []int
	start := time.Now()
	if *device {
		plat := pipeline.EdgeTPU()
		plan, err := edgetpu.ParseFaultPlan(*faults, *faultSeed)
		if err != nil {
			fail(err.Error())
		}
		var timing pipeline.DeviceTiming
		if *profile && *faults == "" {
			var prof *pipeline.DeviceProfiler
			preds, timing, prof, err = pipeline.InferOnDeviceProfiled(plat, model, ds, ds, *batch)
			if err == nil {
				fmt.Print(prof.Report(*plat.Accel))
			}
		} else {
			var report *pipeline.ReliabilityReport
			preds, timing, report, err = pipeline.InferOnDeviceResilient(plat, model, ds, ds, *batch, plan, pipeline.DefaultRecoveryPolicy())
			if err == nil && *faults != "" {
				fmt.Println(report)
			}
		}
		if err != nil {
			fail(err.Error())
		}
		fmt.Printf("simulated device time: total=%v host=%v transfer=%v compute=%v\n",
			timing.Total().Round(time.Microsecond),
			timing.Host.Round(time.Microsecond),
			(timing.TransferIn + timing.TransferOut).Round(time.Microsecond),
			timing.Compute.Round(time.Microsecond))
	} else {
		preds = model.PredictBatch(ds.X)
	}
	fmt.Printf("wall-clock inference time: %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("accuracy: %s (%d samples)\n", metrics.FmtPct(metrics.Accuracy(preds, ds.Y)), ds.Samples())

	if *confusion {
		cm := metrics.NewConfusionMatrix(model.K(), preds, ds.Y)
		fmt.Println("confusion matrix (rows = true class):")
		for _, row := range cm.Counts {
			for _, c := range row {
				fmt.Printf(" %6d", c)
			}
			fmt.Println()
		}
		fmt.Printf("macro-F1: %.3f\n", cm.MacroF1())
	}
}

func loadDataset(path string) (*dataset.Dataset, error) {
	if len(path) > 4 && path[len(path)-4:] == ".csv" {
		return dataset.LoadCSV(path, 0)
	}
	return dataset.LoadBinary(path)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "hdc-infer:", msg)
	os.Exit(2)
}
