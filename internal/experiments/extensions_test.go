package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestAblationOnlineCompetitive(t *testing.T) {
	skipLongUnderRace(t)
	rows, err := AblationOnline(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.OnlineOne < r.Iterative-0.12 {
			t.Errorf("%s: single online pass %.3f collapsed vs iterative %.3f",
				r.Dataset, r.OnlineOne, r.Iterative)
		}
		if r.OnlineThree < r.OnlineOne-0.05 {
			t.Errorf("%s: extra passes hurt: %.3f -> %.3f", r.Dataset, r.OnlineOne, r.OnlineThree)
		}
	}
	var buf bytes.Buffer
	RenderAblationOnline(&buf, rows)
	if !strings.Contains(buf.String(), "Online") {
		t.Fatal("render missing columns")
	}
}

func TestAblationBinaryShrinks(t *testing.T) {
	skipLongUnderRace(t)
	rows, err := AblationBinary(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if got := float64(r.FloatBytes) / float64(r.PackedByte); got < 25 || got > 40 {
			t.Errorf("%s: shrink factor %.1f outside ~32x", r.Dataset, got)
		}
		if r.BinaryAcc < r.FloatAcc-0.10 {
			t.Errorf("%s: bipolar accuracy %.3f too far below float %.3f",
				r.Dataset, r.BinaryAcc, r.FloatAcc)
		}
	}
	var buf bytes.Buffer
	RenderAblationBinary(&buf, rows)
	if !strings.Contains(buf.String(), "bipolar") {
		t.Fatal("render missing columns")
	}
}

func TestRunnerKnowsExtensions(t *testing.T) {
	found := map[string]bool{}
	for _, name := range AllExperiments {
		found[name] = true
	}
	for _, want := range []string{"ablation-online", "ablation-binary", "ablation-robustness", "table-energy"} {
		if !found[want] {
			t.Errorf("experiment %q not registered", want)
		}
	}
}

func TestAblationEncoderCompareProjectionWins(t *testing.T) {
	skipLongUnderRace(t)
	rows, err := AblationEncoderCompare(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, r := range rows {
		if r.Projection >= r.IDLevel-0.02 {
			wins++
		}
	}
	if wins < 4 {
		t.Fatalf("projection won only %d/5 datasets", wins)
	}
	var buf bytes.Buffer
	RenderAblationEncoderCompare(&buf, rows)
	if !strings.Contains(buf.String(), "ID-level") {
		t.Fatal("render missing columns")
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

func TestRunOneJSONCoversEveryExperiment(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range AllExperiments {
		if seen[name] {
			t.Fatalf("experiment %q listed twice", name)
		}
		seen[name] = true
		// Every listed name must resolve to a runner and a renderer, the
		// entries RunOne, RunOneJSON and RunAll all dispatch through.
		e, err := lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.run == nil || e.render == nil {
			t.Fatalf("%s: incomplete table entry", name)
		}
		// Running every functional experiment here would be slow, so run
		// only the cheap runtime ones.
		switch name {
		case "table1", "fig5", "fig6", "table2", "fig10",
			"ablation-fused", "ablation-batch", "ablation-link",
			"ablation-overlap", "ablation-scaleout", "table-energy":
			rows, err := RunOneJSON(name, fastCfg())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rows == nil {
				t.Fatalf("%s returned no rows", name)
			}
		}
	}
	if _, err := RunOneJSON("nope", fastCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestWriteJSONWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON("table1", fastCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc["experiment"] != "table1" {
		t.Fatalf("doc %v", doc)
	}
	rows, ok := doc["rows"].([]any)
	if !ok || len(rows) != 5 {
		t.Fatalf("rows %v", doc["rows"])
	}
}
