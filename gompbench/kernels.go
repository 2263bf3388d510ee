package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gomp/internal/bench"
	"gomp/internal/kmp"
	"gomp/internal/npb"
	"gomp/internal/npb/cg"
	"gomp/internal/npb/ep"
	"gomp/internal/trace"
	"gomp/internal/workpool"
	"gomp/omp"
)

// kernels is the paper's Tables I–III analogue plus the task-dependence
// DAG: NPB CG class W, IS class A and EP class S in the omp flavour and the
// goroutine reference flavour, and blocked LU through bench.LUDAG, all at
// threads = nproc. One unit is a round: every kernel once in each flavour
// plus one LU, in an order drawn from the seed. Each omp run sits next to
// its reference run, so host drift cancels in their ratio. NPB inputs are
// fixed by class; the seed sets only the interleaving.
type kernels struct {
	cfg     *config
	rng     *rand.Rand
	classes map[string]npb.Class

	luIn, luRef, luWork []float64

	secs      map[string][]float64 // "cg/omp" -> NPB timer seconds, untraced runs
	pairs     map[string][]float64 // "cg" -> omp over the reference run next to it
	mops      map[string][]float64 // "cg" -> omp Mop/s, untraced runs
	luSecs    []float64            // untraced LUDAG wall seconds
	luRefWork [][]float64          // one LU input per processor for the reference
	luRefSecs []float64            // untraced reference wall seconds
	serial    map[string]float64   // serial-flavour seconds, traced run only

	luSnaps []trace.MetricsSnapshot // collector deltas around LUDAG, traced runs

	streamGBps, streamBytes, llcBytes float64
	cgBytes                           float64  // bytes one CG run moves, computed
	cgEvents                          cgEvents // runtime events of one CG omp run
}

var npbKernels = []string{"cg", "is", "ep"}

// luPerRound is how many LUDAG/reference pairs a round runs; one takes
// tens of milliseconds, so a round needs several for a steady median.
const luPerRound = 8

func newKernels(cfg *config, probe bool) *kernels {
	k := &kernels{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		classes: map[string]npb.Class{"cg": 'W', "is": 'A', "ep": 'S'},
		secs:    map[string][]float64{},
		pairs:   map[string][]float64{},
		mops:    map[string][]float64{},
		serial:  map[string]float64{},
	}
	if probe {
		k.classes = map[string]npb.Class{"cg": 'S', "is": 'S', "ep": 'S'}
	}
	return k
}

// setup builds the LU input and its serial reference factor and starts
// the runtime's team.
func (k *kernels) setup() error {
	omp.TrimTeams()
	omp.Parallel(func(*omp.Thread) {}, omp.NumThreads(k.cfg.threads))
	k.luIn = bench.NewLUMatrix()
	k.luRef = append([]float64(nil), k.luIn...)
	bench.LUSerial(k.luRef)
	k.luWork = make([]float64, len(k.luIn))
	k.luRefWork = make([][]float64, k.cfg.threads)
	for i := range k.luRefWork {
		k.luRefWork[i] = make([]float64, len(k.luIn))
	}
	return nil
}

func (k *kernels) unit(l *ledger) tally {
	var t tally
	u := int32(-1)
	if l != nil {
		u = l.newUnit()
	}
	order := append([]string{"lu"}, npbKernels...)
	k.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, name := range order {
		// Each kernel starts on a collected heap, so neither its time nor
		// the peak resident set depends on when the previous kernel's
		// garbage happens to be collected.
		runtime.GC()
		if name == "lu" {
			refFirst := k.rng.Intn(2) == 1
			for i := 0; i < luPerRound; i++ {
				var dag, ref float64
				if refFirst {
					ref = k.runLURef(l, u, &t)
				}
				dag = k.runLU(l, u, &t)
				if !refFirst {
					ref = k.runLURef(l, u, &t)
				}
				if dag > 0 && ref > 0 {
					k.luSecs = append(k.luSecs, dag)
					k.luRefSecs = append(k.luRefSecs, ref)
				}
			}
			continue
		}
		impls := []string{"omp", "goroutines"}
		if k.rng.Intn(2) == 1 {
			impls[0], impls[1] = impls[1], impls[0]
		}
		var secs [2]float64
		for i, impl := range impls {
			if i > 0 {
				runtime.GC()
			}
			secs[i] = k.runNPB(l, u, name, impl, &t)
		}
		if secs[0] > 0 && secs[1] > 0 {
			if impls[0] == "omp" {
				k.pairs[name] = append(k.pairs[name], secs[0]/secs[1])
			} else {
				k.pairs[name] = append(k.pairs[name], secs[1]/secs[0])
			}
		}
	}
	return t
}

// runNPB runs one NPB kernel and returns its timer seconds when the run
// was untraced and verified, else 0.
func (k *kernels) runNPB(l *ledger, u int32, name, impl string, t *tally) float64 {
	sp := spKernel
	if impl == "goroutines" {
		sp = spKernelRef
	}
	run := bench.Run
	if k.cfg.corrupt {
		run = corruptedRun
	}
	s := l.open(sp, 0, -1, u)
	r, err := run(name, impl, k.classes[name], k.cfg.threads)
	l.close(s)
	verified := err == nil && r.Verified
	t.check(verified, "%s %s class %c: verification failed (err=%v)", name, impl, k.classes[name], err)
	if !verified || l != nil {
		return 0
	}
	k.secs[name+"/"+impl] = append(k.secs[name+"/"+impl], r.Seconds)
	if impl == "omp" {
		k.mops[name] = append(k.mops[name], r.MopsTotal)
	}
	return r.Seconds
}

// corruptedRun runs an NPB kernel like bench.Run but perturbs the value
// NPB verifies (CG's zeta, EP's sum of X deviates) before the result is
// verified, so the tests can show that a wrong answer fails NPB's own
// check. IS verifies inside the run (Stats.SortedOK), out of reach from
// here, so it runs uncorrupted.
func corruptedRun(name, impl string, class npb.Class, threads int) (npb.Result, error) {
	parallel := impl == "omp"
	switch name {
	case "cg":
		run := cg.RunGoroutines
		if parallel {
			run = cg.RunParallel
		}
		st, err := run(class, threads)
		if err != nil {
			return npb.Result{}, err
		}
		st.Zeta += 1e-6
		return st.Result(impl), nil
	case "ep":
		run := ep.RunGoroutines
		if parallel {
			run = ep.RunParallel
		}
		st, err := run(class, threads)
		if err != nil {
			return npb.Result{}, err
		}
		st.Sx *= 1.001
		return st.Result(impl), nil
	}
	return bench.Run(name, impl, class, threads)
}

// runLU runs LUDAG once and returns its wall seconds when the run was
// untraced and bitwise correct, else 0.
func (k *kernels) runLU(l *ledger, u int32, t *tally) float64 {
	copy(k.luWork, k.luIn)
	var before trace.MetricsSnapshot
	if l != nil {
		l.prof.Flush()
		before = l.prof.Metrics().Snapshot()
	}
	s := l.open(spLUDAG, 0, -1, u)
	begin := time.Now()
	bench.LUDAG(k.luWork, k.cfg.threads)
	secs := time.Since(begin).Seconds()
	l.close(s)
	if l != nil {
		l.prof.Flush()
		k.luSnaps = append(k.luSnaps, snapDelta(l.prof.Metrics().Snapshot(), before))
	}
	if k.cfg.corrupt {
		k.luWork[len(k.luWork)/2] = math.Nextafter(k.luWork[len(k.luWork)/2], 2)
	}
	ok := true
	for i := range k.luWork {
		if math.Float64bits(k.luWork[i]) != math.Float64bits(k.luRef[i]) {
			ok = false
			break
		}
	}
	t.check(ok, "LUDAG factor differs from LUSerial (max |diff| %g)", bench.LUMaxDiff(k.luWork, k.luRef))
	if !ok || l != nil {
		return 0
	}
	return secs
}

// runLURef times LU's reference: nproc independent bench.LUSerial
// factorisations at once, one per goroutine — the same block kernels on
// the same processors without the runtime. Set against it, LUDAG's time
// keeps its meaning when a busy host takes processors away from both.
func (k *kernels) runLURef(l *ledger, u int32, t *tally) float64 {
	for _, b := range k.luRefWork {
		copy(b, k.luIn)
	}
	s := l.open(spLURef, 0, -1, u)
	begin := time.Now()
	var wg sync.WaitGroup
	for _, b := range k.luRefWork {
		wg.Add(1)
		go func(b []float64) {
			defer wg.Done()
			bench.LUSerial(b)
		}(b)
	}
	wg.Wait()
	secs := time.Since(begin).Seconds()
	l.close(s)
	ok := bench.LUMaxDiff(k.luRefWork[0], k.luRef) == 0
	t.check(ok, "LU reference differs from the set-up factor")
	if !ok || l != nil {
		return 0
	}
	return secs
}

func (k *kernels) finish() tally { return tally{} }

// traceExtras runs what only the traced run measures: each kernel's
// serial flavour (for speedup_vs_serial), the CG matrix size (for its
// computed bandwidth) and a STREAM-style triad.
func (k *kernels) traceExtras(l *ledger) {
	u := l.newUnit()
	for _, name := range npbKernels {
		s := l.open(spKernelSer, 0, -1, u)
		r, err := bench.Run(name, "serial", k.classes[name], 1)
		l.close(s)
		l.check(err == nil && r.Verified, "%s serial class %c: verification failed (err=%v)", name, k.classes[name], err)
		k.serial[name] = r.Seconds
	}
	if m, err := cg.MakeA(k.classes["cg"]); err == nil {
		k.cgBytes = cgBytesPerRun(m, k.classes["cg"])
	}
	k.cgEvents = cgEventCounts(l, k.classes["cg"], k.cfg.threads)
	k.triad()
}

// cgEvents is what one CG omp run under a counting collector emitted
// inside its NPB-timed section, with that run's timer seconds and those
// of the goroutine reference run next to it.
type cgEvents struct {
	secs, refSecs float64
	count         map[kmp.TraceKind]int64
	barrierWaitNs int64
}

// cgEventCounts runs the CG goroutine reference and then CG's omp flavour
// under a counting collector. Only events that start inside the omp run's
// timed section count — the section is the run's timer seconds ending
// when bench.Run returns — so the split's parts and the time they split
// come from one run. Static loops report no loop-init event to the
// metrics registry, only one participation span per thread, so the CG
// split counts those spans here.
func cgEventCounts(l *ledger, class npb.Class, threads int) cgEvents {
	ev := cgEvents{count: map[kmp.TraceKind]int64{}}
	ref, err := bench.Run("cg", "goroutines", class, threads)
	l.check(err == nil && ref.Verified, "cg goroutines class %c: verification failed (err=%v)", class, err)
	ev.refSecs = ref.Seconds
	var evs []kmp.TraceEvent
	c := kmp.NewCollector(collectorRing)
	c.Sink = func(batch []kmp.TraceEvent) { evs = append(evs, batch...) }
	runtime.GC()
	kmp.SetCollector(c)
	r, err := bench.Run("cg", "omp", class, threads)
	end := kmp.TraceNow()
	kmp.SetCollector(nil)
	c.Flush()
	l.check(err == nil && r.Verified, "cg omp class %c under a collector: verification failed (err=%v)", class, err)
	ev.secs = r.Seconds
	begin := end - int64(r.Seconds*1e9)
	for _, e := range evs {
		if e.When < begin || e.When > end {
			continue
		}
		ev.count[e.Kind]++
		if e.Kind == kmp.TraceBarrier {
			ev.barrierWaitNs += e.Dur
		}
	}
	return ev
}

// cgBytesPerRun is the traffic one CG run's timed section implies from
// array sizes alone: per CG iteration one sparse matrix-vector product
// (values, column indices and row starts once, the input and output
// vectors once) and the vector updates of conj_grad (about 14 reads and
// writes of an n-vector); cgitmax = 25 iterations plus the residual
// product per power step, niter steps.
func cgBytesPerRun(m *cg.Matrix, class npb.Class) float64 {
	n, nnz := float64(m.N), float64(m.NNZ)
	spmv := nnz*(8+4) + (n+1)*4 + 2*n*8
	perIter := spmv + 14*n*8
	niter := map[npb.Class]float64{'S': 15, 'W': 15, 'A': 15, 'B': 75, 'C': 75}[class]
	return niter * (25*perIter + spmv + 4*n*8)
}

// triad measures memory bandwidth with a = b + s*c over arrays whose
// total size is four times the last-level cache (256 MB when sysfs does
// not report one, capped at 512 MB), on the goroutine pool so the runtime
// under test plays no part.
func (k *kernels) triad() {
	k.llcBytes = float64(lastLevelCacheBytes())
	total := 4 * k.llcBytes
	if total == 0 {
		total = 256 << 20
	}
	total = math.Min(total, 512<<20)
	if k.cfg.small {
		total = 32 << 20
	}
	n := int(total / 24)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	pool := workpool.New(k.cfg.threads)
	defer pool.Close()
	pool.ForBlock(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b[i], c[i] = float64(i), 1
		}
	})
	var rates []float64
	for rep := 0; rep < 5; rep++ {
		begin := time.Now()
		pool.ForBlock(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
		rates = append(rates, 24*float64(n)/time.Since(begin).Seconds()/1e9)
	}
	k.streamGBps = median(rates)
	k.streamBytes = 24 * float64(n)
}

func (k *kernels) medianSecs(key string) float64 { return median(k.secs[key]) }

func (k *kernels) endToEnd() map[string]float64 {
	return map[string]float64{
		"primary_vs_ref":   k.npbVsRef(),
		"secondary_vs_ref": pairedRatio(k.luSecs, k.luRefSecs),
	}
}

// npbVsRef is the paper's headline ratio: the geometric mean over CG, IS
// and EP of each kernel's median omp-over-reference ratio, every omp run
// paired with the reference run next to it.
func (k *kernels) npbVsRef() float64 {
	var r []float64
	for _, name := range npbKernels {
		r = append(r, median(k.pairs[name]))
	}
	return geomean(r)
}

func (k *kernels) report() []figure {
	var f []figure
	for _, name := range npbKernels {
		f = append(f, figure{name + "_s", k.medianSecs(name + "/omp"), "s", len(k.secs[name+"/omp"])})
	}
	for _, name := range npbKernels {
		f = append(f, figure{"workpool." + name + "_s", k.medianSecs(name + "/goroutines"), "s", len(k.secs[name+"/goroutines"])})
	}
	f = append(f,
		figure{"lu_s", median(k.luSecs), "s", len(k.luSecs)},
		figure{"lu_ref_s", median(k.luRefSecs), "s", len(k.luRefSecs)},
		figure{"npb_vs_ref", k.npbVsRef(), "ratio", len(k.secs["cg/omp"])})
	if k.streamBytes > 0 {
		f = append(f, k.streamFigures()...)
	}
	return f
}

func (k *kernels) layers(l *ledger) map[string]float64 {
	m := map[string]float64{}
	med := func(snaps []trace.MetricsSnapshot, f func(trace.MetricsSnapshot) float64) float64 {
		var xs []float64
		for _, s := range snaps {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	spawns := med(k.luSnaps, func(s trace.MetricsSnapshot) float64 { return float64(s.TaskSpawns) })
	steals := med(k.luSnaps, func(s trace.MetricsSnapshot) float64 { return float64(s.TaskSteals) })
	m["kmp.task.spawns"] = spawns
	m["kmp.task.runs"] = med(k.luSnaps, func(s trace.MetricsSnapshot) float64 { return float64(s.TaskRuns) })
	m["kmp.task.steals"] = steals
	m["kmp.task.steal_ratio"] = steals / spawns
	m["kmp.task.dep_stalls"] = med(k.luSnaps, func(s trace.MetricsSnapshot) float64 { return float64(s.DepStalls) })
	m["kmp.task.dep_releases"] = med(k.luSnaps, func(s trace.MetricsSnapshot) float64 { return float64(s.DepReleases) })
	m["kmp.task.run_ns"] = med(k.luSnaps, func(s trace.MetricsSnapshot) float64 { return float64(s.TaskNs) / float64(s.TaskRuns) })
	m["kmp.task.queue_peak"] = med(k.luSnaps, func(s trace.MetricsSnapshot) float64 { return float64(s.TaskQueuePeak) })
	for _, name := range npbKernels {
		m["npb."+name+".mops"] = median(k.mops[name])
		m["npb."+name+".speedup_vs_serial"] = k.serial[name] / k.medianSecs(name+"/omp")
		m["workpool."+name+"_s"] = k.medianSecs(name + "/goroutines")
	}
	m["npb.cg.gbps_computed"] = k.cgBytes / k.medianSecs("cg/omp") / 1e9
	m["npb.stream_gbps"] = k.streamGBps
	// Raw inputs of the CG split, finished by cgSplit once the fork and
	// dispatch unit costs are known.
	m["_cg.s"] = k.cgEvents.secs
	m["_cg.ref_s"] = k.cgEvents.refSecs
	m["_cg.forks"] = float64(k.cgEvents.count[kmp.TraceForkBegin])
	m["_cg.loops"] = float64(k.cgEvents.count[kmp.TraceLoopFini]) / float64(k.cfg.threads)
	m["_cg.barrier_wait_ns"] = float64(k.cgEvents.barrierWaitNs)
	m["_cg.threads"] = float64(k.cfg.threads)
	return m
}

// cgSplit divides the counting collector run's CG omp time into
// fork/join, barrier wait, dispatch and compute: forks times the measured
// team fork cost, the run's barrier wait averaged over the team's
// threads, static loops times the measured static dispatch cost, and the
// remainder. gap_s is that run's time minus the goroutine reference run
// next to it, the gap the split explains. It reports whether the parts
// fit in the run's time, that is whether compute is not negative.
func cgSplit(m map[string]float64) bool {
	cgs := m["_cg.s"]
	fork := m["_cg.forks"] * m["kmp.fork.team_ns"] / 1e9
	wait := m["_cg.barrier_wait_ns"] / m["_cg.threads"] / 1e9
	disp := m["_cg.loops"] * m["kmp.dispatch.static.overhead_ns"] / 1e9
	m["npb.cg.split_s"] = cgs
	m["npb.cg.fork_s"] = fork
	m["npb.cg.barrier_wait_s"] = wait
	m["npb.cg.dispatch_s"] = disp
	m["npb.cg.compute_s"] = cgs - fork - wait - disp
	m["npb.cg.gap_s"] = cgs - m["_cg.ref_s"]
	for _, k := range []string{"_cg.s", "_cg.ref_s", "_cg.forks", "_cg.loops", "_cg.barrier_wait_ns", "_cg.threads"} {
		delete(m, k)
	}
	return m["npb.cg.compute_s"] >= 0
}

// streamFigures states the triad's sizes next to its result.
func (k *kernels) streamFigures() []figure {
	return []figure{
		{"npb.stream_bytes", k.streamBytes, "B", 1},
		{"npb.llc_bytes", k.llcBytes, "B", 1},
		{"npb.cg.bytes_per_run", k.cgBytes, "B", 1},
	}
}
