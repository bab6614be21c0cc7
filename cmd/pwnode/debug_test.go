package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/trace"
	"peerwindow/internal/udptransport"
)

// fastConfig mirrors the -fast flag: timers compressed ~50× so a
// two-node overlay settles within a test's patience.
func fastConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ProbeInterval = 600 * des.Millisecond
	cfg.ProbeTimeout = 150 * des.Millisecond
	cfg.AckTimeout = 150 * des.Millisecond
	cfg.ForwardDelay = 20 * des.Millisecond
	cfg.ShiftCheckInterval = 2 * des.Second
	cfg.MeterWindow = 4 * des.Second
	cfg.ReconcileDelay = 1 * des.Second
	return cfg
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body)
}

// TestDebugServerSmoke is the end-to-end observability smoke test: boot
// a two-node overlay over real UDP, scrape /metrics, and check that the
// debug documents are well-formed and non-trivial.
func TestDebugServerSmoke(t *testing.T) {
	seed, err := udptransport.Listen("127.0.0.1:0", "seed", 0, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	ln, err := startDebugServer("127.0.0.1:0", "seed", seed)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	seed.Bootstrap()

	other, err := udptransport.Listen("127.0.0.1:0", "other", 0, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Join(seed.Self(), 10*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}

	// Let the join multicast land in seed's window.
	deadline := time.Now().Add(5 * time.Second)
	for seed.Query().View().Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}

	base := fmt.Sprintf("http://%s", ln.Addr())

	metrics := httpGet(t, base+"/metrics")
	if !strings.Contains(metrics, "pw_net_send_") {
		t.Fatalf("/metrics missing pw_net_send_* counters:\n%s", metrics)
	}
	if !strings.Contains(metrics, "pw_peers_added") {
		t.Fatalf("/metrics missing pw_peers_added:\n%s", metrics)
	}
	if !strings.Contains(metrics, "# TYPE") {
		t.Fatalf("/metrics missing TYPE comments:\n%s", metrics)
	}
	var exposed int
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "pw_") {
			exposed++
		}
	}
	if exposed < 10 {
		t.Fatalf("/metrics exposes %d pw_ samples, want >= 10", exposed)
	}

	var doc struct {
		Name   string `json:"name"`
		ID     string `json:"id"`
		Level  int    `json:"level"`
		Window []struct {
			ID    string `json:"id"`
			Addr  string `json:"addr"`
			Level int    `json:"level"`
		} `json:"window"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/window")), &doc); err != nil {
		t.Fatalf("/debug/window is not JSON: %v", err)
	}
	if doc.Name != "seed" || doc.ID == "" {
		t.Fatalf("/debug/window identity wrong: %+v", doc)
	}
	if len(doc.Window) != 1 {
		t.Fatalf("/debug/window has %d pointers, want 1", len(doc.Window))
	}

	var qdoc struct {
		Name      string         `json:"name"`
		Epoch     uint64         `json:"epoch"`
		Entries   int            `json:"entries"`
		MinLevel  int            `json:"min_level"`
		Levels    map[string]int `json:"levels"`
		Strongest []struct {
			ID    string `json:"id"`
			Level int    `json:"level"`
		} `json:"strongest"`
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/query")), &qdoc); err != nil {
		t.Fatalf("/debug/query is not JSON: %v", err)
	}
	if qdoc.Name != "seed" {
		t.Fatalf("/debug/query name = %q, want seed", qdoc.Name)
	}
	if qdoc.Entries != 1 || qdoc.Epoch == 0 {
		t.Fatalf("/debug/query entries=%d epoch=%d, want 1 entry at epoch >= 1", qdoc.Entries, qdoc.Epoch)
	}
	if len(qdoc.Strongest) != 1 || qdoc.Strongest[0].ID == "" {
		t.Fatalf("/debug/query strongest wrong: %+v", qdoc.Strongest)
	}
	var levelSum int
	for _, c := range qdoc.Levels {
		levelSum += c
	}
	if levelSum != qdoc.Entries {
		t.Fatalf("/debug/query level histogram sums to %d, want %d", levelSum, qdoc.Entries)
	}
	if _, ok := qdoc.Counters["query.deltas.add"]; !ok {
		t.Fatalf("/debug/query counters missing query.deltas.add: %+v", qdoc.Counters)
	}
	if qdoc.Counters["query.deltas.add"] == 0 {
		t.Fatalf("/debug/query shows zero adds after a join: %+v", qdoc.Counters)
	}

	// /debug/spans is the one trace endpoint; it holds the node's probe
	// rounds (one per 600 ms ProbeInterval) as well as its trees.
	var spans []trace.Span
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		spans, err = trace.ReadSpans(strings.NewReader(httpGet(t, base+"/debug/spans")))
		if err != nil {
			t.Fatalf("/debug/spans is not span JSONL: %v", err)
		}
		if hasKind(spans, trace.SpanProbeRound) || time.Now().After(deadline) {
			break
		}
	}
	if !hasKind(spans, trace.SpanProbeRound) {
		t.Fatalf("/debug/spans holds no probe-round span among %d", len(spans))
	}
	// /debug/spans is the only trace endpoint.
	for _, gone := range []string{"trace"} {
		resp, err := http.Get(base + "/debug/" + gone)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /debug/%s: status %d, want 404", gone, resp.StatusCode)
		}
	}
}

func hasKind(spans []trace.Span, k trace.SpanKind) bool {
	for _, s := range spans {
		if s.Kind == k {
			return true
		}
	}
	return false
}
