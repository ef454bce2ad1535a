package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the host block every result carries. Numbers from two
// different hosts are not comparable: the same 20k round has read 356 ms
// and 628 ms on two machines of this project.
type hostInfo struct {
	Cores      int     `json:"cores"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1      float64 `json:"load1_at_start"`
	Note       string  `json:"note"`
}

const loopbackNote = "udp_serve traffic crosses the host loopback interface, not a real link; all timings are host time"

func readHost() hostInfo {
	h := hostInfo{
		Cores:      runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Load1:      -1,
		Note:       loopbackNote,
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
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(b)); len(fields) > 0 {
			if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
				h.Load1 = v
			}
		}
	}
	return h
}

// warnIfLoaded shouts when the host is already busy: the timings of a
// run that shares its two cores are not worth comparing.
func warnIfLoaded(h hostInfo) {
	if h.Load1 > 0.5*float64(h.Cores) {
		fmt.Fprintf(os.Stderr, "\n*** WARNING: 1-min load average %.2f exceeds half of %d cores — this run's timings are not comparable ***\n\n", h.Load1, h.Cores)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's high-water mark, so that in a -workload all run each workload
// reports its own peak, not its predecessors'. Best effort: without
// /proc/self/clear_refs the peak simply carries over.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuSeconds returns the CPU time (user + system) the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// phaseClock measures one phase: wall time, CPU time and heap counters
// between start and stop.
type phaseClock struct {
	t0      time.Time
	cpu0    float64
	mallocs uint64
	bytes   uint64
}

func startPhase() phaseClock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseClock{t0: time.Now(), cpu0: cpuSeconds(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// phaseDelta is what a phase cost.
type phaseDelta struct {
	wall, cpu      float64
	mallocs, bytes uint64
}

func (p phaseClock) stop() phaseDelta {
	wall := time.Since(p.t0).Seconds()
	cpu := cpuSeconds() - p.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseDelta{wall: wall, cpu: cpu, mallocs: ms.Mallocs - p.mallocs, bytes: ms.TotalAlloc - p.bytes}
}
