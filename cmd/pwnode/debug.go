package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"peerwindow/internal/query"
	"peerwindow/internal/transport"
	"peerwindow/internal/wire"
)

// This file implements the -debug-addr observability surface:
//
//	/metrics       Prometheus text exposition of every instrument
//	/debug/window  the current window as JSON
//	/debug/query   the query-plane snapshot state: epoch, entry and
//	               bucket counts, level histogram, strongest peers,
//	               delta and subscription counters
//	/debug/trace   the retained event ring, newest last, as plain text
//	/debug/spans   the retained causal spans as JSONL (pipe to pwtrace)
//	/debug/pprof/  the standard Go profiler endpoints (CPU, heap,
//	               goroutine, block, mutex); see docs/OBSERVABILITY.md
//	               for the capture recipes
//
// The endpoints read through the node's executor, so they are safe to
// scrape while the protocol runs; they are meant for localhost
// diagnostics, not for exposure to the open internet.

// debugTraceCapacity is the event ring retained for /debug/trace when
// the debug server is enabled.
const debugTraceCapacity = 4096

// debugSpanCapacity bounds the span buffer behind /debug/spans. Spans
// only accrue for traced multicasts touching this node, so the buffer
// covers a long window of activity.
const debugSpanCapacity = 8192

// pointerJSON is one window entry in /debug/window output.
type pointerJSON struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Level int    `json:"level"`
	Info  string `json:"info,omitempty"`
}

// windowJSON is the /debug/window document.
type windowJSON struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Addr   string        `json:"addr"`
	Level  int           `json:"level"`
	Window []pointerJSON `json:"window"`
}

// queryJSON is the /debug/query document.
type queryJSON struct {
	Name      string            `json:"name"`
	Epoch     uint64            `json:"epoch"`
	Entries   int               `json:"entries"`
	MinLevel  int               `json:"min_level"`
	Levels    map[string]int    `json:"levels"`
	Strongest []pointerJSON     `json:"strongest"`
	Counters  map[string]uint64 `json:"counters"`
}

// endpoint renders a wire address as dotted-quad host:port.
func endpoint(a wire.Addr) string {
	ip, port := a.IPv4()
	return fmt.Sprintf("%d.%d.%d.%d:%d", ip[0], ip[1], ip[2], ip[3], port)
}

// startDebugServer binds addr and serves the debug endpoints for n in a
// background goroutine. It returns the bound listener so callers (and
// tests) learn the effective port when addr ends in :0.
func startDebugServer(addr, name string, n *transport.Host) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pwnode: debug server: %w", err)
	}
	ring := n.EnableTrace(debugTraceCapacity)
	spans := n.EnableSpans(debugSpanCapacity)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.MetricsSnapshot().WritePrometheus(w, "pw")
	})
	mux.HandleFunc("/debug/window", func(w http.ResponseWriter, r *http.Request) {
		self := n.Self()
		doc := windowJSON{
			Name:   name,
			ID:     self.ID.String(),
			Addr:   endpoint(self.Addr),
			Level:  n.Level(),
			Window: []pointerJSON{},
		}
		for _, p := range n.Pointers() {
			doc.Window = append(doc.Window, pointerJSON{
				ID:    p.ID.String(),
				Addr:  endpoint(p.Addr),
				Level: int(p.Level),
				Info:  string(p.Info),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/debug/query", func(w http.ResponseWriter, r *http.Request) {
		store := n.Query()
		v := store.View()
		doc := queryJSON{
			Name:      name,
			Epoch:     v.Epoch(),
			Entries:   v.Len(),
			MinLevel:  v.MinLevel(),
			Levels:    map[string]int{},
			Strongest: []pointerJSON{},
		}
		for l := 0; l <= 64; l++ {
			if c := v.CountAtLevel(l); c > 0 {
				doc.Levels[fmt.Sprintf("%d", l)] = c
			}
		}
		for _, e := range v.Strongest(8) {
			doc.Strongest = append(doc.Strongest, pointerJSON{
				ID:    e.ID.String(),
				Addr:  endpoint(e.Addr),
				Level: int(e.Level),
				Info:  e.Info(),
			})
		}
		snap := store.MetricsSnapshot()
		doc.Counters = map[string]uint64{
			query.MetricQueryDeltasAdd:     snap.Counters[query.MetricQueryDeltasAdd],
			query.MetricQueryDeltasUpdate:  snap.Counters[query.MetricQueryDeltasUpdate],
			query.MetricQueryDeltasRemove:  snap.Counters[query.MetricQueryDeltasRemove],
			query.MetricQuerySubsDelivered: snap.Counters[query.MetricQuerySubsDelivered],
			query.MetricQuerySubsDropped:   snap.Counters[query.MetricQuerySubsDropped],
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "# %d events recorded, newest last\n", ring.Total())
		ring.Dump(w)
	})

	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		spans.WriteJSONL(w)
	})

	// The profiler endpoints register on http.DefaultServeMux via the
	// pprof package's init; mount them on this private mux explicitly so
	// nothing else riding DefaultServeMux is exposed by accident.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln, nil
}
