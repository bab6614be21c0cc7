package main

import (
	"errors"
	"fmt"
	"io"
	"regexp"
	"time"
)

// metricName is the shape every metric and workload name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// runSmoke runs every workload untraced and traced at toy scale in this
// process and checks the output the way the driver's contract reads it:
// every name well-formed and reported once where it applies, every
// output check passing, no failed operation.
func runSmoke(w io.Writer, seed uint64, out string) error {
	start := time.Now()
	var errs []error
	for _, d := range metricDefs {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			errs = append(errs, fmt.Errorf("metric name %q is malformed", d.name))
		}
	}
	for _, wl := range workloads {
		if !metricName.MatchString(wl.name) {
			errs = append(errs, fmt.Errorf("workload name %q is malformed", wl.name))
		}
		for _, traced := range []bool{false, true} {
			r, err := measure(wl, seed, smokeSeconds, traced, smokeSizes(), out)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", wl.name, err))
				continue
			}
			printReport(w, r)
			if err := validate(r); err != nil {
				errs = append(errs, err)
			}
			if !r.Correct {
				errs = append(errs, fmt.Errorf("%s (traced=%v): output checks failed: %v", wl.name, traced, r.Notes))
			}
			if r.Failed != 0 {
				errs = append(errs, fmt.Errorf("%s (traced=%v): %d of %d operations failed", wl.name, traced, r.Failed, r.Attempted))
			}
		}
	}
	fmt.Fprintf(w, "\nsmoke: %d workloads, untraced + traced, in %v\n", len(workloads), time.Since(start).Round(time.Millisecond))
	return errors.Join(errs...)
}

// smokeSeconds is the duration handed to each smoke run; time-boxed
// workloads divide it over their phases.
const smokeSeconds = 0.9
