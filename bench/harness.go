package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spooftrack/internal/stats"
)

// processStart is taken at package initialisation, so setup_s covers
// everything the process does before its first timed op.
var processStart = time.Now()

// cpuTime returns the CPU time (user+sys) the whole process has
// consumed: every goroutine, the garbage collector and the kernel's
// share of the socket work all land in it, which is what makes it the
// cost figure for workloads that spread over several goroutines.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuJiffies is one /proc/stat sample of the machine-wide "cpu" line.
type cpuJiffies struct{ steal, total float64 }

// readCPUJiffies samples /proc/stat. It is a diagnostic only: where the
// file cannot be read the sample is zero and harness.steal_frac reads 0.
func readCPUJiffies() cpuJiffies {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuJiffies{}
	}
	var s cpuJiffies
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuJiffies{}
		}
		// Fields: user nice system idle iowait irq softirq steal guest
		// guest_nice; guest time is already inside user/nice.
		if i < 8 {
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// stealFrac is the share of machine CPU time the hypervisor gave to
// other guests between two samples.
func stealFrac(a, b cpuJiffies) float64 {
	if d := b.total - a.total; d > 0 {
		return (b.steal - a.steal) / d
	}
	return 0
}

// kernelRelease is uname -r without reading any file.
func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// memCounters are the allocator totals one op is charged against.
// ReadMemStats stops the world and flushes every per-P cache, so the
// deltas are exact — runtime/metrics reads the same counters without
// the flush and lags by whatever the caches hold.
type memCounters struct {
	bytes, mallocs uint64
	gcs            uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{bytes: m.TotalAlloc, mallocs: m.Mallocs, gcs: m.NumGC}
}

// retainedMB forces two collections (the second frees what the first
// one's finalizers and sweep released) and reports the live heap.
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; an empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method) — the estimator the benchmark contract
// uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrFrac is the interquartile range as a share of the median.
func iqrFrac(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metricSet collects measurements by name; setting a name twice is a
// harness bug and panics, so every name is emitted exactly once.
type metricSet struct {
	list  []metric
	index map[string]int
}

func newMetricSet() *metricSet { return &metricSet{index: make(map[string]int)} }

func (s *metricSet) set(name string, v float64, unit string) {
	if _, dup := s.index[name]; dup {
		panic(fmt.Sprintf("bench: metric %q set twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.index[name] = len(s.list)
	s.list = append(s.list, metric{Name: name, Value: v, Unit: unit})
}

func (s *metricSet) get(name string) (metric, bool) {
	i, ok := s.index[name]
	if !ok {
		return metric{}, false
	}
	return s.list[i], true
}
