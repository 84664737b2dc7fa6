package serve

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"hdcedge/internal/metrics"
)

// This file exposes the live observability surface over HTTP:
//
//	GET /metrics      Prometheus text exposition of the live registry
//	GET /snapshot     JSON snapshot: health, fleet, counters, gauges,
//	                  histogram quantile digests
//	GET /traces       JSON dump of the recent settled-request traces
//	GET /debug/pprof  Go runtime profiling (the stock net/http/pprof set)
//
// Every endpoint reads from snapshots that are safe while workers are
// mid-invoke; hitting them never blocks the serving path.

// snapshotJSON is the /snapshot response body. Tenants is omitted without
// Config.Tenants; Models lists the registry IDs in registration order. The
// per-tenant hdc_tenant_* counters flow through Counters/Histograms with
// their {tenant="..."} labels.
type snapshotJSON struct {
	Health     string                              `json:"health"`
	Fleet      string                              `json:"fleet"`
	Tenants    []string                            `json:"tenants,omitempty"`
	Models     []string                            `json:"models,omitempty"`
	Counters   map[string]int64                    `json:"counters"`
	Gauges     map[string]int64                    `json:"gauges"`
	Histograms map[string]metrics.HistogramSummary `json:"histograms"`
}

// Handler returns the observability endpoints as one http.Handler, ready to
// mount on any listener. The server keeps serving while handlers run.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = metrics.WritePrometheus(w, s.Metrics().Snapshot())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		snap := s.Metrics().Snapshot()
		body := snapshotJSON{
			Health:     s.Health().String(),
			Fleet:      s.cfg.Fleet.String(),
			Models:     s.cfg.Registry.IDs(),
			Counters:   snap.Counters,
			Gauges:     snap.Gauges,
			Histograms: make(map[string]metrics.HistogramSummary, len(snap.Histograms)),
		}
		for _, t := range s.cfg.Tenants {
			body.Tenants = append(body.Tenants, t.Name)
		}
		for name, h := range snap.Histograms {
			body.Histograms[name] = h.Summary()
		}
		writeJSON(w, body)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Traces())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
