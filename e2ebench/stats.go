package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// envelope is the environment record every report carries. StealFrac is
// the share of the machine's CPU time a hypervisor took from it during the
// run (from /proc/stat; -1 where unavailable): on a shared virtual machine
// it explains a run-wide slowdown the program did not cause.
type envelope struct {
	Generated   string  `json:"generated"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NCPU        int     `json:"ncpu"`
	LoopbackTCP bool    `json:"loopback_tcp"`
	StealFrac   float64 `json:"steal_frac"`
}

func newEnvelope(loopback bool, start cpuTimes) envelope {
	return envelope{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NCPU:        runtime.NumCPU(),
		LoopbackTCP: loopback,
		StealFrac:   stealFrac(start),
	}
}

// cpuTimes are the machine-wide CPU tick counters of /proc/stat.
type cpuTimes struct{ total, steal uint64 }

// stealFrac is the share of the machine's CPU time stolen since start, or
// -1 where /proc/stat is unavailable.
func stealFrac(start cpuTimes) float64 {
	if end := readCPUTimes(); start.total > 0 && end.total > start.total {
		return float64(end.steal-start.steal) / float64(end.total-start.total)
	}
	return -1
}

// processCPU is the CPU time, user and system, the process has used, in
// seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// readCPUTimes reads the aggregate "cpu" line of /proc/stat; the zero value
// means it is unavailable.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t
}

// heapMB is the live heap after full collections; the second one also
// empties the sync.Pool victim caches.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rtCounters are process-wide runtime counters read around a phase.
type rtCounters struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtCounters {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtCounters{mallocs: u(0), bytes: u(1), gcCPU: f(2), allCPU: f(3)}
}
