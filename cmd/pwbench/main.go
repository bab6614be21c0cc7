// Command pwbench is the repository's one benchmark: four workloads
// (analytic simulators, full-fidelity simulator, live UDP nodes, query
// plane), a handful of end-to-end metrics every workload reports, and
// per-layer metrics from a separate traced pass. It drives the code only
// through the public functions of the existing packages and claims no
// gain; see README.md beside this file.
//
// Benchmark-driver mode, one run of one workload:
//
//	pwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints one JSON object as the last line of standard output. Without
// --workload it runs every workload untraced and then traced, each in a
// child process, prints every metric with its unit and spread, and
// writes pwbench.json and trace.jsonl into --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result line (benchmark-driver mode)")
		seed     = flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
		out      = flag.String("out", "out", "directory for pwbench.json, trace.jsonl and CPU profiles")
		smoke    = flag.Bool("smoke", false, "run every workload at toy scale in this process and check the output")
		compare  = flag.Bool("compare", false, "compare two pwbench.json files given as arguments")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
		detail   = flag.Bool("detail", false, "with --workload: print the whole report, not just the driver's keys")
	)
	flag.Parse()
	var err error
	switch {
	case *manifest:
		err = writeManifest(os.Stdout)
	case *compare:
		err = runCompare(os.Stdout, flag.Args())
	case *smoke:
		err = runSmoke(os.Stdout, *seed, *out)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *traced != 0, *detail, *out)
	default:
		err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwbench:", err)
		os.Exit(1)
	}
}

// driverResult is the object the benchmark driver reads from the last
// line of standard output.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure makes one run of one workload.
func measure(w *workloadDef, seed uint64, seconds float64, traced bool, sz sizes, out string) (*report, error) {
	if traced {
		return runTraced(w, seed, seconds, sz, out)
	}
	return runUntraced(w, seed, seconds, sz), nil
}

// validate checks a report against the metric table: every metric the
// run owes is there, under a well-formed name, and no end-to-end metric
// is zero.
func validate(r *report) error {
	var errs []error
	for _, d := range metricDefs {
		if d.endToEnd() == r.Traced || !d.measuredOn(r.Workload) {
			continue
		}
		v, ok := r.Metrics[d.name]
		switch {
		case !ok && strings.HasPrefix(d.name, "cpu_share."):
			// Absent only when there is no go tool; the report says so.
		case !ok:
			errs = append(errs, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name))
		case d.endToEnd() && !(v.Value > 0):
			errs = append(errs, fmt.Errorf("%s: end-to-end metric %s = %v", r.Workload, d.name, v.Value))
		}
	}
	for name := range r.Metrics {
		if _, ok := metricByName[name]; !ok && !strings.HasPrefix(name, "_") {
			errs = append(errs, fmt.Errorf("%s: metric %s is not in the table", r.Workload, name))
		}
	}
	if r.Attempted < 1 {
		errs = append(errs, fmt.Errorf("%s: no operation attempted", r.Workload))
	}
	return errors.Join(errs...)
}

func runOne(name string, seed uint64, seconds float64, traced, detail bool, out string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := measure(w, seed, seconds, traced, fullSizes(), out)
	if err != nil {
		return err
	}
	if err := validate(r); err != nil {
		return err
	}
	for _, n := range r.Notes {
		fmt.Fprintln(os.Stderr, n)
	}
	if detail {
		return json.NewEncoder(os.Stdout).Encode(r)
	}
	res := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for _, d := range metricDefs {
		if d.endToEnd() != traced {
			// A per-layer metric this workload does not measure reads
			// 0: the layer did no work here.
			res.Metrics[d.name] = driverMetric{Value: r.Metrics[d.name].Value, Unit: d.unit}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// resultFile is what the all-workloads mode writes and -compare reads.
type resultFile struct {
	Host       hostInfo  `json:"host"`
	Seed       uint64    `json:"seed"`
	RunSeconds float64   `json:"run_seconds"`
	Runs       []*report `json:"runs"`
}

// runAll runs every workload untraced, then traced, one child process
// per run so that peak memory and GC state are the run's own.
func runAll(seed uint64, seconds float64, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	file := resultFile{Host: readHostInfo(), Seed: seed, RunSeconds: seconds}
	fmt.Printf("pwbench seed=%d run_seconds=%g %s GOMAXPROCS=%d nproc=%d cpu=%q git=%s\n", seed, seconds,
		file.Host.GoVersion, file.Host.GOMAXPROCS, file.Host.NumCPU, file.Host.CPUModel, file.Host.GitSHA)
	fmt.Println("udp_live runs on the loopback interface, not a link: no wire latency, no loss.")
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", map[bool]string{false: "0", true: "1"}[traced], "-detail", "-out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s (trace=%v): %w", w.name, traced, err)
			}
			var r report
			if err := json.Unmarshal(lastLine(stdout), &r); err != nil {
				return fmt.Errorf("%s (trace=%v): bad result line: %w", w.name, traced, err)
			}
			file.Runs = append(file.Runs, &r)
			printReport(os.Stdout, &r)
		}
	}
	if err := joinTraces(out); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(out, "pwbench.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(&file); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, r := range file.Runs {
		if !r.Correct {
			return fmt.Errorf("%s (traced=%v) failed its output checks", r.Workload, r.Traced)
		}
	}
	return nil
}

func lastLine(b []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return []byte(lines[len(lines)-1])
}

// joinTraces concatenates the children's trace-<workload>.jsonl files
// into trace.jsonl.
func joinTraces(out string) error {
	dst, err := os.Create(filepath.Join(out, "trace.jsonl"))
	if err != nil {
		return err
	}
	for _, w := range workloads {
		part := filepath.Join(out, "trace-"+w.name+".jsonl")
		src, err := os.Open(part)
		if err != nil {
			dst.Close()
			return err
		}
		_, err = io.Copy(dst, src)
		src.Close()
		if err != nil {
			dst.Close()
			return err
		}
		os.Remove(part)
	}
	return dst.Close()
}

// printReport lists every metric of a run by name, with unit, spread
// and sample count, end-to-end rows first.
func printReport(w io.Writer, r *report) {
	kind := "untraced"
	if r.Traced {
		kind = "traced pass"
	}
	fmt.Fprintf(w, "\n== %s (%s)  ops=%d failed_ops=%d checks=%s\n", r.Workload, kind, r.Attempted, r.Failed,
		map[bool]string{true: "pass", false: "FAIL"}[r.Correct])
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		if !strings.HasPrefix(name, "_") {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		ei, ej := metricByName[names[i]].endToEnd(), metricByName[names[j]].endToEnd()
		if ei != ej {
			return ei
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		v := r.Metrics[name]
		tag := ""
		if d := metricByName[name]; d.endToEnd() {
			tag = fmt.Sprintf("  end-to-end, %s is better, bound %.0f%%", d.better, 100*d.bound)
		}
		fmt.Fprintf(w, "  %-42s %14.6g %-6s spread %5.1f%% n=%-4d%s\n", name, v.Value, v.Unit, 100*v.Spread, v.N, tag)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// manifestOf renders the metric and workload tables as BENCHMARK.json.
func manifestOf() benchmarkJSON {
	b := benchmarkJSON{
		// The package is named by import path: "." would read as the
		// repository root, which is outside Paths.
		Command:    []string{"go", "run", "-C", "cmd/pwbench", "peerwindow/cmd/pwbench"},
		Paths:      []string{"cmd/pwbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range metricDefs {
		if d.endToEnd() {
			b.EndToEnd = append(b.EndToEnd, endToEndJSON{d.name, d.unit, d.better, d.bound})
		} else {
			b.PerLayer = append(b.PerLayer, perLayerJSON{d.name, d.unit, d.better})
		}
	}
	return b
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(manifestOf())
}
