package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// runTraced is the traced pass of one workload: one untraced repeat (the
// overhead baseline, and the source of every row that an end-to-end
// number could be confused with), one repeat with the harness's spans,
// the layers' own span sinks and a CPU profile on, then the layer
// probes. It writes trace-<workload>.jsonl into outDir.
func runTraced(w *workloadDef, seed uint64, seconds float64, sz sizes, outDir string) (*report, error) {
	phase := time.Duration(seconds * float64(time.Second) / 3)
	base := w.run(&runCtx{seed: seed, sz: sz, phase: phase})

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rec := newRecorder(w.name)
	profPath := filepath.Join(outDir, "cpu-"+w.name+".prof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	traced := w.run(&runCtx{seed: seed, sz: sz, phase: phase, rec: rec})
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}

	r := aggregate(w, seed, []sample{base})
	r.Traced = true
	r.Attempted += traced.ops
	r.Failed += traced.failed
	for _, b := range traced.bad {
		r.Correct = false
		r.Notes = append(r.Notes, "traced repeat: "+b)
	}
	// Rows only tracing can produce (tree shape, hop time) come from the
	// traced repeat.
	for k, vs := range traced.m {
		if _, ok := r.Metrics[k]; !ok {
			r.Metrics[k] = summarise(k, vs)
		}
	}
	if w.post != nil {
		w.post(r, []sample{base, traced})
	}
	r.Metrics["trace_overhead_pct"] = one(overheadPct(w, base, traced), "trace_overhead_pct")

	pc := &probeCtx{c: &runCtx{seed: seed, sz: sz, rec: rec}, m: map[string]float64{}}
	w.probes(pc, r)
	for k, v := range pc.m {
		r.Metrics[k] = one(v, k)
	}

	shares, err := cpuShares(profPath)
	if err != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("cpu_share.* omitted: %v", err))
	}
	for pkg, pct := range shares {
		r.Metrics["cpu_share."+pkg] = one(pct, "cpu_share."+pkg)
	}

	for i, st := range rec.selfTimes() {
		if i == 12 {
			break
		}
		r.Notes = append(r.Notes, fmt.Sprintf("self time: %-40s n=%-7d total %-12v self %v", st.Name, st.Count, st.Total, st.Self))
	}
	if err := rec.writeJSONL(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	return r, nil
}

func one(v float64, name string) metricValue { return summarise(name, []float64{v}) }

// overheadPct is what tracing cost the unit: extra wall time for a
// fixed-work unit, lost throughput for a time-boxed one.
func overheadPct(w *workloadDef, base, traced sample) float64 {
	if w.fixedWork {
		b, t := median(base.m["_unit_wall_s"]), median(traced.m["_unit_wall_s"])
		if b == 0 {
			return 0
		}
		return 100 * (t/b - 1)
	}
	b, t := median(base.m["ops_per_s"]), median(traced.m["ops_per_s"])
	if t == 0 {
		return 0
	}
	return 100 * (b/t - 1)
}

// cpuPackages are the packages whose share of CPU samples is reported.
var cpuPackages = []string{"des", "core", "wire", "sim", "shard", "query", "udptransport", "runtime", "syscall"}

// cpuShares folds the profile's flat samples by package with
// `go tool pprof -top` — a second, sampling-based opinion beside the
// probe-based attribution. Without a go tool there are no rows.
func cpuShares(profPath string) (map[string]float64, error) {
	// A Go CPU profile carries its own symbols, so no binary is needed.
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", profPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, firstLine(stderr.String()))
	}
	byPkg := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		flat, err := time.ParseDuration(f[0]) // pprof prints "1.87s", "840ms", "0"
		if err != nil {
			continue
		}
		total += flat.Seconds()
		byPkg[packageOf(f[5])] += flat.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	shares := map[string]float64{}
	for _, pkg := range cpuPackages {
		shares[pkg] = 100 * byPkg[pkg] / total
	}
	return shares, nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	return line
}

// packageOf reduces a symbol to the last element of its package path:
// "peerwindow/internal/query.(*View).Get" → "query",
// "internal/runtime/syscall.Syscall6" → "syscall". Assembly stubs
// without a package ("cmpbody") count as runtime.
func packageOf(sym string) string {
	path := sym
	if i := strings.LastIndex(sym, "/"); i >= 0 {
		path = sym[i+1:]
	}
	pkg, _, ok := strings.Cut(path, ".")
	if !ok {
		return "runtime"
	}
	return pkg
}
