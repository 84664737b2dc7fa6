package hdcedge

import (
	"bytes"
	"strings"
	"testing"
)

// The facade tests exercise the library exactly as README's quickstart
// shows a downstream user would.

func TestFacadeEndToEnd(t *testing.T) {
	ds, err := Generate(SyntheticSpec(40, 1600, 4, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.25, NewRNG(2))

	cfg := DefaultTrainConfig()
	cfg.Dim = 1024
	cfg.Epochs = 6
	model, stats, err := Train(train, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalUpdates() == 0 {
		t.Fatal("no training updates")
	}
	hostAcc := model.Accuracy(test)
	if hostAcc < 0.7 {
		t.Fatalf("host accuracy %.3f", hostAcc)
	}

	preds, timing, err := InferOnDevice(EdgeTPU(), model, test, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range preds {
		if p == test.Y[i] {
			correct++
		}
	}
	devAcc := float64(correct) / float64(len(preds))
	if devAcc < hostAcc-0.05 {
		t.Fatalf("device accuracy %.3f vs host %.3f", devAcc, hostAcc)
	}
	if timing.Total() <= 0 {
		t.Fatal("no device timing")
	}
}

func TestFacadeBagging(t *testing.T) {
	ds, err := Generate(SyntheticSpec(36, 1600, 5, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.25, NewRNG(4))
	cfg := DefaultBaggingConfig()
	cfg.Dim = 1024
	ens, _, err := TrainBagging(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fused := ens.Fuse()
	if fused.Dim() != 1024 {
		t.Fatalf("fused dim %d", fused.Dim())
	}
	if acc := fused.Accuracy(test); acc < 0.65 {
		t.Fatalf("fused accuracy %.3f", acc)
	}
}

func TestFacadeCoDesignTraining(t *testing.T) {
	ds, err := Generate(SyntheticSpec(30, 1200, 3, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.25, NewRNG(6))
	cfg := DefaultTrainConfig()
	cfg.Dim = 768
	cfg.Epochs = 6
	res, err := TrainOnDevice(EdgeTPU(), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Model.Accuracy(test); acc < 0.7 {
		t.Fatalf("co-design accuracy %.3f", acc)
	}
}

func TestFacadeCatalog(t *testing.T) {
	if len(Catalog()) != 5 {
		t.Fatal("catalog size")
	}
	spec, err := CatalogSpec("MNIST")
	if err != nil || spec.Features != 784 {
		t.Fatalf("MNIST spec: %+v, %v", spec, err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) < 9 {
		t.Fatalf("only %d experiments", len(Experiments()))
	}
	var buf bytes.Buffer
	if err := RunExperiment("table1", DefaultExperimentConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PAMAP2") {
		t.Fatal("table1 render incomplete")
	}
}

func TestFacadePlatforms(t *testing.T) {
	if !EdgeTPU().HasAccel() {
		t.Fatal("EdgeTPU platform lacks accelerator")
	}
	if CPUBaseline().HasAccel() || RaspberryPi().HasAccel() {
		t.Fatal("CPU platforms must not carry accelerators")
	}
}
