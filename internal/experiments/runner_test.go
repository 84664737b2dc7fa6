package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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

// TestDocsNameRegisteredExperiments keeps the docs and the experiment
// table in step: every experiment name the docs put in backticks must be
// registered, and every registered name must be documented in DESIGN.md §5
// or EXPERIMENTS.md.
func TestDocsNameRegisteredExperiments(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range AllExperiments {
		registered[name] = true
	}
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md")
	named := regexp.MustCompile("`((?:fig|table|ablation-)[a-z0-9-]*)`")
	for _, doc := range docs {
		for _, m := range named.FindAllStringSubmatch(read(doc), -1) {
			if !registered[m[1]] {
				t.Errorf("%s names experiment %q, which is not registered", doc, m[1])
			}
		}
	}

	design := read("../../DESIGN.md")
	start := strings.Index(design, "\n## 5.")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 5")
	}
	section := design[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	documented := section + read("../../EXPERIMENTS.md")
	for _, name := range AllExperiments {
		word := regexp.MustCompile(`(^|[^a-z0-9-])` + regexp.QuoteMeta(name) + `($|[^a-z0-9-])`)
		if !word.MatchString(documented) {
			t.Errorf("experiment %q is documented in neither DESIGN.md §5 nor EXPERIMENTS.md", name)
		}
	}
}
