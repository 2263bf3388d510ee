package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"time"

	"gomp/internal/trace"
)

// The traced run. Spans are recorded by the benchmark around each call it
// makes into a layer's public functions — nothing inside the program
// changes. Each span has a name, start, end, parent and the identifier of
// its unit (one kernel run, region or driver pass); spans stay in memory
// and are written out when the run ends. A layer's self time is its
// span's duration minus the part its same-thread child spans cover.

// spanName enumerates the span kinds; spanNames gives their text and
// spanLayer the layer their self time is charged to.
type spanName uint8

const (
	spKernel    spanName = iota // one NPB kernel run, omp flavour
	spKernelRef                 // one NPB kernel run, goroutine reference
	spKernelSer                 // one NPB kernel run, serial flavour
	spLUDAG
	spLURef
	spParallelSerial // omp.Parallel with a team of one
	spParallelTeam   // omp.Parallel with a team of nproc
	spBody           // one thread's share of a region body
	spForStatic      // omp.ForRange, schedule(static)
	spForDynamic
	spForGuided
	spChunk // one chunk body handed out by ForRange
	spCombine
	spBarrier
	spDriverNew
	spDriverCold
	spDriverWarm
	spRefCold
	spRefWarm
	spTokenize
	spParse
	spValidate
	spTransform
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"npb.kernel.omp", "npb.kernel.goroutines", "npb.kernel.serial", "bench.LUDAG", "bench.LUSerial/x-nproc",
	"omp.Parallel/serial", "omp.Parallel/team", "region.body",
	"omp.ForRange/static", "omp.ForRange/dynamic", "omp.ForRange/guided", "loop.chunk",
	"omp.Reduction.Combine", "omp.Barrier",
	"driver.New", "driver.Run/cold", "driver.Run/warm", "ref.format", "ref.hash",
	"core.Tokenize", "core.ParseDirective", "core.Validate", "core.Transform",
}

var spanLayer = [numSpanNames]string{
	"npb", "npb", "npb", "bench", "bench",
	"omp", "omp", "compute",
	"omp", "omp", "omp", "compute",
	"omp", "omp",
	"driver", "driver", "driver", "bench", "bench",
	"core", "core", "core", "core",
}

type span struct {
	start, end int64 // ns since the ledger's epoch
	id, parent int32 // parent < 0: a unit's root span
	unit       int32
	name       spanName
	tid        uint8
}

// maxSpans bounds the ledger's memory (about 32 bytes a span); spans past
// it are counted, not kept.
const maxSpans = 1 << 21

// maxWrittenSpans bounds the spans file: the metrics derive from every
// kept span, the file holds the first ones of each ledger.
const maxWrittenSpans = 100000

// maxTeam bounds the per-thread span buffers.
const maxTeam = 256

type ledger struct {
	tally
	epoch   time.Time
	ids     atomic.Int32
	units   atomic.Int32
	dropped atomic.Int64
	bufs    [maxTeam][]span
	// calls counts opened spans by name, kept or not, so per-unit call
	// counts stay exact when the span budget runs out.
	calls [numSpanNames]atomic.Int64

	prof  *trace.Profiler
	snaps []trace.MetricsSnapshot // collector delta per traced unit

	tracedNs, untracedNs []float64 // unit wall times for trace.overhead_ratio

	// kept and self are derived once the run is over: every kept span, and
	// per-span self times indexed by span id.
	kept []span
	self []int64

	merged map[string]float64 // per-layer metrics of the workload and probes
	probes []*ledger          // the cross-probe's ledgers
}

// collectorRing is the traced run's per-thread event ring. The runtime
// drains rings at region joins, and one LUDAG region emits several events
// for each of its ~1500 tasks, more than the default ring holds.
const collectorRing = 1 << 16

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), prof: trace.New(trace.WithRingSize(collectorRing))}
}

func (l *ledger) now() int64 { return int64(time.Since(l.epoch)) }

// newUnit returns a fresh unit identifier.
func (l *ledger) newUnit() int32 { return l.units.Add(1) - 1 }

// open starts a span; the returned span is closed by close. A nil ledger
// records nothing, so call sites need no tracing branch.
func (l *ledger) open(name spanName, tid int, parent, unit int32) span {
	if l == nil {
		return span{}
	}
	id := l.ids.Add(1) - 1
	l.calls[name].Add(1)
	return span{start: l.now(), id: id, parent: parent, unit: unit, name: name, tid: uint8(tid)}
}

func (l *ledger) close(s span) {
	if l == nil {
		return
	}
	s.end = l.now()
	if s.id >= maxSpans || int(s.tid) >= maxTeam {
		l.dropped.Add(1)
		return
	}
	l.bufs[s.tid] = append(l.bufs[s.tid], s)
}

// all returns every kept span. It is called once the ledger's run is
// over, so the first call's result serves every later one.
func (l *ledger) all() []span {
	if l.kept == nil {
		for _, b := range l.bufs {
			l.kept = append(l.kept, b...)
		}
	}
	return l.kept
}

// deriveSelf computes every span's self time: its duration minus the
// durations of its children recorded on the same thread.
func (l *ledger) deriveSelf() {
	spans := l.all()
	l.self = make([]int64, min(l.ids.Load(), maxSpans))
	tidOf := make([]int16, len(l.self))
	for i := range tidOf {
		tidOf[i] = -1
	}
	for _, s := range spans {
		l.self[s.id] += s.end - s.start
		tidOf[s.id] = int16(s.tid)
	}
	for _, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(l.self) && tidOf[s.parent] == int16(s.tid) {
			l.self[s.parent] -= s.end - s.start
		}
	}
}

// selfTimes returns the self times, in ns, of every span with the name.
func (l *ledger) selfTimes(name spanName) []float64 {
	if l.self == nil {
		l.deriveSelf()
	}
	var out []float64
	for _, s := range l.all() {
		if s.name == name {
			out = append(out, float64(l.self[s.id]))
		}
	}
	return out
}

// durations returns the wall durations, in ns, of every span with the name.
func (l *ledger) durations(name spanName) []float64 {
	var out []float64
	for _, s := range l.all() {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// layerShares charges every span's self time to its layer and returns each
// layer's share of the total.
func (l *ledger) layerShares() map[string]float64 {
	if l.self == nil {
		l.deriveSelf()
	}
	byLayer := map[string]float64{}
	total := 0.0
	for _, s := range l.all() {
		v := float64(l.self[s.id])
		byLayer[spanLayer[s.name]] += v
		total += v
	}
	out := map[string]float64{}
	for _, layer := range []string{"omp", "compute", "npb", "bench", "driver", "core"} {
		if total > 0 {
			out["self."+layer+".share"] = byLayer[layer] / total
		} else {
			out["self."+layer+".share"] = 0
		}
	}
	return out
}

// tracedUnit runs one unit with the collector installed and records the
// collector's delta over it.
func (l *ledger) tracedUnit(w workload) {
	l.prof.Start()
	l.prof.Flush()
	before := l.prof.Metrics().Snapshot()
	begin := time.Now()
	l.add(w.unit(l))
	l.tracedNs = append(l.tracedNs, float64(time.Since(begin)))
	l.prof.Flush()
	after := l.prof.Metrics().Snapshot()
	l.prof.Stop()
	l.snaps = append(l.snaps, snapDelta(after, before))
}

func snapDelta(a, b trace.MetricsSnapshot) trace.MetricsSnapshot {
	return trace.MetricsSnapshot{
		Forks:         a.Forks - b.Forks,
		RegionNs:      a.RegionNs - b.RegionNs,
		Barriers:      a.Barriers - b.Barriers,
		BarrierWaitNs: a.BarrierWaitNs - b.BarrierWaitNs,
		LoopInits:     a.LoopInits - b.LoopInits,
		LoopNs:        a.LoopNs - b.LoopNs,
		LoopSteals:    a.LoopSteals - b.LoopSteals,
		StolenIters:   a.StolenIters - b.StolenIters,
		TaskSpawns:    a.TaskSpawns - b.TaskSpawns,
		TaskRuns:      a.TaskRuns - b.TaskRuns,
		TaskNs:        a.TaskNs - b.TaskNs,
		TaskSteals:    a.TaskSteals - b.TaskSteals,
		DepStalls:     a.DepStalls - b.DepStalls,
		DepReleases:   a.DepReleases - b.DepReleases,
		RingDrops:     a.RingDrops - b.RingDrops,
		TaskQueuePeak: a.TaskQueuePeak,
	}
}

// perUnit returns the median over traced units of f(delta).
func (l *ledger) perUnit(f func(trace.MetricsSnapshot) float64) float64 {
	var xs []float64
	for _, s := range l.snaps {
		xs = append(xs, f(s))
	}
	return median(xs)
}

// extraTraced is implemented by workloads with once-per-traced-run
// measurements (serial flavours, the stream triad).
type extraTraced interface {
	traceExtras(l *ledger)
}

// flightProber is implemented by the regions workload: one untraced pass
// with the flight recorder off, for trace.flight_ns_per_region.
type flightProber interface {
	flightOffPass()
}

// tracedRun alternates traced and untraced units until the time is up,
// then runs one reduced unit of each other workload (the cross-probe), so
// every layer is measured in every traced run: a layer the workload
// exercises is measured on the workload's own calls, the others on the
// probe.
func tracedRun(cfg *config, w workload) (*ledger, error) {
	l := newLedger()
	for lp := newLoop(cfg.seconds); lp.next(); {
		debug.FreeOSMemory()
		l.tracedUnit(w)
		debug.FreeOSMemory()
		begin := time.Now()
		l.add(w.unit(nil))
		l.untracedNs = append(l.untracedNs, float64(time.Since(begin)))
		if fp, ok := w.(flightProber); ok {
			fp.flightOffPass()
		}
	}
	if x, ok := w.(extraTraced); ok {
		x.traceExtras(l)
	}
	l.add(w.finish())
	l.merged = w.layers(l)
	for _, name := range workloadNames {
		if name == cfg.workload {
			continue
		}
		pw, err := newWorkload(cfg, name, true)
		if err != nil {
			return nil, err
		}
		if err := pw.setup(); err != nil {
			return nil, fmt.Errorf("probe %s setup: %w", name, err)
		}
		pl := newLedger()
		pl.tracedUnit(pw)
		pl.add(pw.unit(nil))
		if fp, ok := pw.(flightProber); ok {
			fp.flightOffPass()
		}
		if x, ok := pw.(extraTraced); ok {
			x.traceExtras(pl)
		}
		l.add(pl.tally)
		for k, v := range pw.layers(pl) {
			if _, own := l.merged[k]; !own {
				l.merged[k] = v
			}
		}
		l.probes = append(l.probes, pl)
	}
	return l, nil
}

// layerMetrics assembles the per-layer metrics: the workload's and the
// probes' layers, then those every workload measures on its own units.
func (l *ledger) layerMetrics() map[string]float64 {
	m := map[string]float64{}
	for k, v := range l.merged {
		m[k] = v
	}
	m["kmp.fork.count"] = l.perUnit(func(s trace.MetricsSnapshot) float64 { return float64(s.Forks) })
	m["kmp.barrier.count"] = l.perUnit(func(s trace.MetricsSnapshot) float64 { return float64(s.Barriers) })
	var wait, barriers, drops float64
	for _, s := range l.snaps {
		wait += float64(s.BarrierWaitNs)
		barriers += float64(s.Barriers)
		drops += float64(s.RingDrops)
	}
	m["kmp.barrier.wait_ns"] = 0
	if barriers > 0 {
		m["kmp.barrier.wait_ns"] = wait / barriers
	}
	m["kmp.dispatch.steals"] = l.perUnit(func(s trace.MetricsSnapshot) float64 { return float64(s.LoopSteals) })
	m["kmp.dispatch.stolen_iters"] = l.perUnit(func(s trace.MetricsSnapshot) float64 { return float64(s.StolenIters) })
	m["trace.ring_drops"] = drops
	m["trace.overhead_ratio"] = median(l.tracedNs) / median(l.untracedNs)
	for k, v := range l.layerShares() {
		m[k] = v
	}
	l.check(cgSplit(m), "CG split: fork, barrier wait and dispatch (%.4g s) exceed the run's %.4g s",
		m["npb.cg.fork_s"]+m["npb.cg.barrier_wait_s"]+m["npb.cg.dispatch_s"], m["npb.cg.split_s"])
	return m
}

// write stores the spans and their derived self times as JSON under dir
// and returns the file's path.
func (l *ledger) write(dir string, cfg *config) (string, error) {
	type spanOut struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Unit   int32  `json:"unit"`
		Tid    uint8  `json:"tid"`
		Self   int64  `json:"self_ns"`
	}
	dump := func(lg *ledger) []spanOut {
		if lg.self == nil {
			lg.deriveSelf()
		}
		var out []spanOut
		for _, s := range lg.all() {
			if len(out) == maxWrittenSpans {
				break
			}
			out = append(out, spanOut{spanNames[s.name], s.start, s.end, s.id, s.parent, s.unit, s.tid, lg.self[s.id]})
		}
		return out
	}
	probes := [][]spanOut{}
	for _, p := range l.probes {
		probes = append(probes, dump(p))
	}
	b, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "host": hostBlock(cfg),
		"dropped_spans": l.dropped.Load(),
		"kept_spans":    len(l.all()),
		"spans":         dump(l),
		"probe_spans":   probes,
	})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	return path, os.WriteFile(path, b, 0o644)
}
