package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// hostProbe records the host conditions a run measured under. They are
// printed beside every run, not gated: a set whose times spread widely
// usually shows CPU steal from other tenants here.
type hostProbe struct {
	stat0 []uint64
}

type hostStats struct {
	nproc      int
	gomaxprocs int
	goVersion  string
	steal      float64 // share of all CPU ticks taken by the hypervisor
}

func startHost() hostProbe { return hostProbe{stat0: readProcStat()} }

func (h hostProbe) stop() hostStats {
	hs := hostStats{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version()}
	hs.steal = stealShare(h.stat0, readProcStat())
	return hs
}

// readProcStat returns the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal, ... in ticks. It
// returns nil where /proc/stat is unavailable.
func readProcStat() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var ticks []uint64
	for _, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// stealShare is the steal ticks' share of all ticks between two
// /proc/stat samples. Guest time is already counted in user time, so
// only the first eight fields are summed.
func stealShare(a, b []uint64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total uint64
	for i := 0; i < 8; i++ {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(total)
}
