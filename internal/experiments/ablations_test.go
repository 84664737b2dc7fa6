package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// ablationModel runs the merged model-variants experiment once per test
// binary; the four tests below each check one question against its rows.
var ablationModel struct {
	once sync.Once
	rows []ModelRow
	err  error
}

func ablationModelRows(t *testing.T) []ModelRow {
	t.Helper()
	skipLongUnderRace(t)
	ablationModel.once.Do(func() {
		ablationModel.rows, ablationModel.err = AblationModel(fastCfg())
	})
	if ablationModel.err != nil {
		t.Fatal(ablationModel.err)
	}
	if len(ablationModel.rows) != 5 {
		t.Fatalf("%d rows", len(ablationModel.rows))
	}
	return ablationModel.rows
}

// requireColumns fails t unless the rendered merged table names every col.
func requireColumns(t *testing.T, rows []ModelRow, cols ...string) {
	t.Helper()
	var buf bytes.Buffer
	RenderAblationModel(&buf, rows)
	for _, col := range cols {
		if !strings.Contains(buf.String(), col) {
			t.Errorf("render missing column %q", col)
		}
	}
}

func TestAblationEncodingNonlinearWins(t *testing.T) {
	rows := ablationModelRows(t)
	wins := 0
	for _, r := range rows {
		if r.Tanh >= r.Linear-0.01 {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("tanh encoding won over linear on only %d/5 datasets", wins)
	}
	requireColumns(t, rows, "tanh", "linear")
}

func TestAblationEncoderCompareProjectionWins(t *testing.T) {
	rows := ablationModelRows(t)
	wins := 0
	for _, r := range rows {
		if r.Tanh >= r.IDLevel-0.02 {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("projection won over ID-level on only %d/5 datasets", wins)
	}
	requireColumns(t, rows, "ID-level")
}

func TestAblationOnlineCompetitive(t *testing.T) {
	rows := ablationModelRows(t)
	for _, r := range rows {
		if r.OnlineOne < r.Tanh-0.12 {
			t.Errorf("%s: single online pass %.3f collapsed vs iterative %.3f",
				r.Dataset, r.OnlineOne, r.Tanh)
		}
		if r.OnlineThree < r.OnlineOne-0.05 {
			t.Errorf("%s: extra passes hurt: %.3f -> %.3f", r.Dataset, r.OnlineOne, r.OnlineThree)
		}
	}
	requireColumns(t, rows, "online 1 pass", "online 3 passes")
}

func TestAblationBinaryShrinks(t *testing.T) {
	rows := ablationModelRows(t)
	for _, r := range rows {
		if got := float64(r.FloatBytes) / float64(r.PackedBytes); got < 25 || got > 40 {
			t.Errorf("%s: shrink factor %.1f outside ~32x", r.Dataset, got)
		}
		if r.Bipolar < r.Tanh-0.10 {
			t.Errorf("%s: bipolar accuracy %.3f too far below float %.3f",
				r.Dataset, r.Bipolar, r.Tanh)
		}
	}
	requireColumns(t, rows, "bipolar", "float bytes", "packed bytes")
}

func TestAblationFusedBeatsSerial(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 20
	rows, err := AblationFusedVsSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Serial <= r.Fused {
			t.Errorf("%s: serial (%v) not slower than fused (%v)", r.Dataset, r.Serial, r.Fused)
		}
		if r.Overhead < 1.3 {
			t.Errorf("%s: serial overhead %.2fx too small to motivate fusion", r.Dataset, r.Overhead)
		}
	}
	var buf bytes.Buffer
	RenderAblationFusedVsSerial(&buf, rows)
	if !strings.Contains(buf.String(), "Serial/Fused") {
		t.Fatal("render missing overhead column")
	}
}

func TestAblationSubWidthTradeoff(t *testing.T) {
	skipLongUnderRace(t)
	rows, err := AblationSubWidth(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	divided, full := rows[0], rows[1]
	if full.UpdateTime <= divided.UpdateTime {
		t.Fatalf("full-width update (%v) not more expensive than d/M (%v)", full.UpdateTime, divided.UpdateTime)
	}
	if divided.Accuracy < full.Accuracy-0.06 {
		t.Fatalf("d/M accuracy %.3f collapsed vs full-width %.3f", divided.Accuracy, full.Accuracy)
	}
	var buf bytes.Buffer
	RenderAblationSubWidth(&buf, rows)
	if !strings.Contains(buf.String(), "d/M") {
		t.Fatal("render missing policy")
	}
}

func TestAblationBatchAmortizes(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 20
	points, err := AblationBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].PerSample >= points[i-1].PerSample {
			t.Errorf("per-sample cost not falling at batch %d", points[i].Batch)
		}
	}
	if points[0].Batch != 1 || points[0].RelativeTo32 < 4 {
		t.Errorf("batch-1 penalty %.2f too small; fixed costs must dominate", points[0].RelativeTo32)
	}
	var buf bytes.Buffer
	RenderAblationBatch(&buf, points)
	if !strings.Contains(buf.String(), "Per-sample") {
		t.Fatal("render missing column")
	}
}

func TestAblationDimTradeoff(t *testing.T) {
	skipLongUnderRace(t)
	points, err := AblationDim(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("%d points", len(points))
	}
	// Runtime must grow with d; accuracy must broadly improve from the
	// smallest width to the larger ones.
	for i := 1; i < len(points); i++ {
		if points[i].TrainTime <= points[i-1].TrainTime {
			t.Errorf("training time not increasing at d=%d", points[i].Dim)
		}
	}
	if points[len(points)-1].Accuracy < points[0].Accuracy {
		t.Errorf("largest width (%.3f) worse than smallest (%.3f)",
			points[len(points)-1].Accuracy, points[0].Accuracy)
	}
	var buf bytes.Buffer
	RenderAblationDim(&buf, points)
	if !strings.Contains(buf.String(), "4096") {
		t.Fatal("render missing sweep")
	}
}

func TestAblationOverlapGains(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 20
	rows, err := AblationOverlap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Pipelined > r.Sequential {
			t.Errorf("%s: pipelining slowed encoding (%v vs %v)", r.Dataset, r.Pipelined, r.Sequential)
		}
		if r.Gain > 2.05 {
			t.Errorf("%s: double buffering gained %.2fx; it can at most double throughput", r.Dataset, r.Gain)
		}
	}
	var buf bytes.Buffer
	RenderAblationOverlap(&buf, rows)
	if !strings.Contains(buf.String(), "Pipelined") {
		t.Fatal("render missing column")
	}
}

func TestAblationScaleOutSaturation(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 20
	points, err := AblationScaleOut(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("%d points", len(points))
	}
	byLink := map[string][]ScaleOutPoint{}
	for _, p := range points {
		byLink[p.Link] = append(byLink[p.Link], p)
	}
	usb := byLink["edgetpu-usb"]
	pcie := byLink["edgetpu-pcie"]
	// USB: link-bound — extra devices must not help at all.
	if usb[3].Speedup > 1.05 {
		t.Errorf("USB scale-out gained %.2fx; the shared link should cap it", usb[3].Speedup)
	}
	// PCIe: must gain from a second device, then saturate.
	if pcie[1].Speedup <= 1.05 {
		t.Errorf("PCIe gained nothing from a second device: %.2fx", pcie[1].Speedup)
	}
	if pcie[3].Speedup > pcie[1].Speedup*1.6 {
		t.Errorf("PCIe kept scaling to 8 devices (%.2fx); link should saturate it", pcie[3].Speedup)
	}
}

func TestAblationLinkPCIeWins(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 20
	rows, err := AblationLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PCIe >= r.USB {
			t.Errorf("%s: PCIe (%v) not faster than USB (%v)", r.Dataset, r.PCIe, r.USB)
		}
	}
	// PAMAP2 is dominated by fixed link costs, so it must gain the most
	// from a faster link.
	var pamap2, mnist float64
	for _, r := range rows {
		switch r.Dataset {
		case "PAMAP2":
			pamap2 = r.Gain
		case "MNIST":
			mnist = r.Gain
		}
	}
	if pamap2 <= mnist {
		t.Errorf("PAMAP2 link gain %.2f not above MNIST's %.2f; fixed costs should dominate it", pamap2, mnist)
	}
	var buf bytes.Buffer
	RenderAblationLink(&buf, rows)
	if !strings.Contains(buf.String(), "PCIe") {
		t.Fatal("render missing columns")
	}
}
