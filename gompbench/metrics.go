package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are measured untraced on every workload; README.md
// gives each one's meaning per workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"primary_vs_ref", "ratio"},
	{"secondary_vs_ref", "ratio"},
}

// layerMetrics are measured in the traced run. Counts are per unit of
// work (kernel round, stream pass, build cycle), so with a fixed seed
// they repeat exactly.
var layerMetrics = []metricDef{
	{"kmp.fork.serial_ns", "ns"},
	{"kmp.fork.team_ns", "ns"},
	{"kmp.fork.count", "count"},
	{"kmp.barrier.count", "count"},
	{"kmp.barrier.wait_ns", "ns"},
	{"omp.barrier.call_ns", "ns"},
	{"kmp.dispatch.static.overhead_ns", "ns"},
	{"kmp.dispatch.dynamic.overhead_ns", "ns"},
	{"kmp.dispatch.guided.overhead_ns", "ns"},
	{"kmp.dispatch.chunks", "count"},
	{"kmp.dispatch.steals", "count"},
	{"kmp.dispatch.stolen_iters", "count"},
	{"kmp.task.spawns", "count"},
	{"kmp.task.runs", "count"},
	{"kmp.task.steals", "count"},
	{"kmp.task.steal_ratio", "ratio"},
	{"kmp.task.dep_stalls", "count"},
	{"kmp.task.dep_releases", "count"},
	{"kmp.task.run_ns", "ns"},
	{"kmp.task.queue_peak", "count"},
	{"omp.reduce.count", "count"},
	{"omp.reduce.combine_ns", "ns"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.ring_drops", "count"},
	{"trace.flight_ns_per_region", "ns"},
	{"core.tokenize_ns", "ns"},
	{"core.parse_ns", "ns"},
	{"core.validate_ns", "ns"},
	{"core.transform_ns", "ns"},
	{"core.directives", "count"},
	{"core.growth_ratio", "ratio"},
	{"driver.cold.run_ns", "ns"},
	{"driver.warm.run_ns", "ns"},
	{"driver.transformed", "count"},
	{"driver.cached", "count"},
	{"driver.cache_hit_ratio", "ratio"},
	{"driver.overhead_ns", "ns"},
	{"npb.cg.mops", "Mop/s"},
	{"npb.is.mops", "Mop/s"},
	{"npb.ep.mops", "Mop/s"},
	{"npb.cg.speedup_vs_serial", "ratio"},
	{"npb.is.speedup_vs_serial", "ratio"},
	{"npb.ep.speedup_vs_serial", "ratio"},
	{"npb.cg.gbps_computed", "GB/s"},
	{"npb.stream_gbps", "GB/s"},
	{"npb.cg.split_s", "s"},
	{"npb.cg.fork_s", "s"},
	{"npb.cg.barrier_wait_s", "s"},
	{"npb.cg.dispatch_s", "s"},
	{"npb.cg.compute_s", "s"},
	{"npb.cg.gap_s", "s"},
	{"workpool.cg_s", "s"},
	{"workpool.is_s", "s"},
	{"workpool.ep_s", "s"},
	{"self.omp.share", "ratio"},
	{"self.compute.share", "ratio"},
	{"self.npb.share", "ratio"},
	{"self.bench.share", "ratio"},
	{"self.driver.share", "ratio"},
	{"self.core.share", "ratio"},
}

// median returns the middle value (mean of the middle two), NaN if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// pairedRatio is the median over i of xs[i]/refs[i]: each measurement
// over the reference run next to it, so host drift slower than one pair
// cancels.
func pairedRatio(xs, refs []float64) float64 {
	var r []float64
	for i := range xs {
		r = append(r, xs[i]/refs[i])
	}
	return median(r)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// latencyHist records latencies at 1 ns resolution below its range and
// exactly above it; percentiles interpolate uniformly within a
// nanosecond, so they carry every digit the clock gives.
type latencyHist struct {
	counts []uint32
	over   []int64
	n      int
}

const histRangeNs = 1 << 17 // about 131 µs; regions' p99 is well inside

func newLatencyHist() *latencyHist { return &latencyHist{counts: make([]uint32, histRangeNs)} }

func (h *latencyHist) add(ns int64) {
	h.n++
	if ns >= 0 && ns < histRangeNs {
		h.counts[ns]++
		return
	}
	h.over = append(h.over, ns)
}

// quantile returns the q-quantile in nanoseconds.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	cum := 0.0
	for ns, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			return float64(ns) + (rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	over := append([]int64(nil), h.over...)
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	i := int(rank - cum)
	if i >= len(over) {
		i = len(over) - 1
	}
	return float64(over[i])
}

// yardstick runs a fixed single-threaded loop — floating-point updates
// over a 512 KB array, indexed with a stride — and returns its wall
// seconds. On a shared host a processor's speed drifts with other
// tenants' load, and the processors of one host need not run at the same
// speed (on the host README.md describes, one ran the serial LU
// factorisation in 23 ms and the other in 43 ms at the same moment). A
// set-up timed between two yardstick runs on the same processor, and
// divided by their mean, keeps only its own cost.
func yardstick() float64 {
	a := make([]float64, 1<<16)
	x := 1.0
	begin := time.Now()
	for r := 0; r < 60; r++ {
		for i := range a {
			a[i] += x
			x = x*1.0000001 + a[(i*7)&(len(a)-1)]*1e-9
		}
	}
	secs := time.Since(begin).Seconds()
	yardstickSink = x
	return secs
}

var yardstickSink float64

// yardstickRefSeconds is about the yardstick's median time on the host
// README.md describes. setup_s is each set-up's time over the mean of the
// yardstick runs around it, times this constant: the set-up's wall time
// on that host at that speed.
const yardstickRefSeconds = 0.013

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling back
// to the Go runtime's obtained memory where /proc is missing.
func peakRSSMB() float64 {
	if v, ok := procStatusKB("VmHWM:"); ok {
		return float64(v) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func procStatusKB(key string) (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// lastLevelCacheBytes is the largest cache size sysfs reports for cpu0,
// 0 if unknown.
func lastLevelCacheBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}
