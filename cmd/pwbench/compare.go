package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareBounds gates rows that are per-layer in BENCHMARK.json (they
// exist on some workloads only, so the driver cannot bound them) but
// are what a user of that workload sees. -compare treats them like
// end-to-end rows, with these bounds.
var compareBounds = map[string]float64{
	"bytes_per_node":         0.01,
	"window_error_pct":       0.10,
	"maint_bps_per_1000ptr":  0.02,
	"cpu_s":                  0.10,
	"events_delivered_per_s": 0.15,
	"delivery_p50_ms":        0.15,
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untracedRuns indexes a file's untraced reports by workload: verdicts
// are only ever drawn from untraced runs.
func untracedRuns(f *resultFile) map[string]*report {
	m := map[string]*report{}
	for _, r := range f.Runs {
		if !r.Traced {
			m[r.Workload] = r
		}
	}
	return m
}

// verdict classifies b against a for one row. A row whose own spread
// exceeds its bound on either side cannot resolve a difference of that
// size and is reported as such, never as unchanged.
func verdict(d metricDef, bound float64, a, b metricValue) string {
	if a.Spread > bound || b.Spread > bound {
		return "unresolved"
	}
	if a.Value == 0 {
		if b.Value == 0 {
			return "same"
		}
		return "unresolved"
	}
	worse := (b.Value - a.Value) / a.Value
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// runCompare prints one line per (metric, workload) row of two result
// files and fails only on a row that got worse or a workload that fails
// a larger share of its operations.
func runCompare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two result files, got %d arguments", len(args))
	}
	fa, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	fb, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	if fa.Host.CPUModel != fb.Host.CPUModel || fa.Host.GOMAXPROCS != fb.Host.GOMAXPROCS {
		fmt.Fprintf(w, "warning: different hosts (%q x%d vs %q x%d): host-time rows are not comparable\n",
			fa.Host.CPUModel, fa.Host.GOMAXPROCS, fb.Host.CPUModel, fb.Host.GOMAXPROCS)
	}
	ra, rb := untracedRuns(fa), untracedRuns(fb)
	bad := 0
	fmt.Fprintf(w, "%-16s %-26s %14s %7s %14s %7s %6s  %s\n", "workload", "metric", "a", "spread", "b", "spread", "bound", "verdict")
	for _, wl := range workloads {
		a, b := ra[wl.name], rb[wl.name]
		if a == nil || b == nil {
			fmt.Fprintf(w, "%-16s missing from one file\n", wl.name)
			continue
		}
		var names []string
		for name := range a.Metrics {
			d := metricByName[name]
			if _, both := b.Metrics[name]; both && (d.endToEnd() || compareBounds[name] > 0) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			d := metricByName[name]
			bound := d.bound
			if !d.endToEnd() {
				bound = compareBounds[name]
			}
			va, vb := a.Metrics[name], b.Metrics[name]
			v := verdict(d, bound, va, vb)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-16s %-26s %14.6g %6.1f%% %14.6g %6.1f%% %5.0f%%  %s\n",
				wl.name, name, va.Value, 100*va.Spread, vb.Value, 100*vb.Spread, 100*bound, v)
		}
		if was, is := failShare(a), failShare(b); is > was {
			bad++
			fmt.Fprintf(w, "%-16s failed_ops/ops rose from %.4g to %.4g  worse\n", wl.name, was, is)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) worse", bad)
	}
	return nil
}

func failShare(r *report) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
