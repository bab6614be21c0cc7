package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is what one measured window cost the process: wall time, heap
// allocations, CPU seconds and context switches. Everything is
// process-wide, so a window must not overlap unrelated work.
type usage struct {
	wall      time.Duration
	mallocs   uint64
	user, sys float64 // CPU seconds
	ctxSwitch int64   // voluntary + involuntary
}

func (u usage) cpu() float64 { return u.user + u.sys }

type window struct {
	t0      time.Time
	mallocs uint64
	ru      syscall.Rusage
}

// beginWindow snapshots the process counters. ReadMemStats stops the
// world, so windows bracket whole phases, never single operations.
func beginWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := window{mallocs: ms.Mallocs}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &w.ru) // cannot fail for RUSAGE_SELF
	w.t0 = time.Now()
	return w
}

func (w window) end() usage {
	wall := time.Since(w.t0)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:      wall,
		mallocs:   ms.Mallocs - w.mallocs,
		user:      tvSeconds(ru.Utime) - tvSeconds(w.ru.Utime),
		sys:       tvSeconds(ru.Stime) - tvSeconds(w.ru.Stime),
		ctxSwitch: (ru.Nvcsw + ru.Nivcsw) - (w.ru.Nvcsw + w.ru.Nivcsw),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// It returns 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS makes the kernel restart the high-water mark from the
// current resident set, so that each repeat reports its own peak. Where
// that is not possible the mark simply keeps rising, and later repeats
// report the run's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hostInfo is the fingerprint every result file carries, so two files
// are only compared knowingly across hosts.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GitSHA:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A benchmark checkout need not be a git repository; the sha is
	// best effort.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	return h
}
