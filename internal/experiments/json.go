package experiments

import (
	"encoding/json"
	"io"
)

// WriteJSON runs the experiment and writes an indented JSON document
// {"experiment": name, "rows": ...} to w.
func WriteJSON(name string, cfg Config, w io.Writer) error {
	rows, err := RunOneJSON(name, cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"experiment": name,
		"rows":       rows,
	})
}
