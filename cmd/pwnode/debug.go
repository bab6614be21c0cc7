package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"peerwindow/internal/query"
	"peerwindow/internal/transport"
	"peerwindow/internal/wire"
)

// This file implements the -debug-addr observability surface:
//
//	/metrics       Prometheus text exposition of every instrument
//	/debug/window  the current window as JSON
//	/debug/query   the query-plane snapshot state: epoch, entry count,
//	               minimum level, level histogram, strongest peers,
//	               delta and subscription counters
//	/debug/spans   the retained spans as JSONL, oldest first: multicast
//	               trees and protocol moments (pipe to pwtrace)
//	/debug/pprof/  the standard Go profiler endpoints (CPU, heap,
//	               goroutine, block, mutex); see docs/OBSERVABILITY.md
//	               for the capture recipes
//
// The endpoints read under the host's lock, so they are safe to
// scrape while the protocol runs; they are meant for localhost
// diagnostics, not for exposure to the open internet.

// debugSpanCapacity bounds the span buffer behind /debug/spans. Spans
// accrue for traced multicasts touching this node and for its own
// protocol moments (a probe round per interval and the odd retry, shift
// or refresh), so the buffer covers a long window of activity.
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

// levelCounts returns the /debug/query level histogram: the number of
// entries at each level present in v, keyed by the level in decimal. One
// pass over the entries counts every level a pointer may carry.
func levelCounts(v *query.View) map[string]int {
	counts := map[string]int{}
	v.Each(func(e query.Entry) bool {
		counts[strconv.Itoa(int(e.Level))]++
		return true
	})
	return counts
}

// startDebugServer binds addr and serves the debug endpoints for n in a
// background goroutine. It returns the bound listener so callers (and
// tests) learn the effective port when addr ends in :0.
func startDebugServer(addr, name string, n *transport.Host) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pwnode: debug server: %w", err)
	}
	spans := n.EnableSpans(debugSpanCapacity)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.MetricsSnapshot().WritePrometheus(w)
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
		for _, e := range n.Query().View().Entries() {
			doc.Window = append(doc.Window, pointerJSON{
				ID:    e.ID.String(),
				Addr:  endpoint(e.Addr),
				Level: int(e.Level),
				Info:  e.Info(),
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
			Levels:    levelCounts(v),
			Strongest: []pointerJSON{},
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
