package main

import (
	"math/rand"
	"time"

	"gomp/internal/kmp"
	"gomp/omp"
)

// regions is the EPCC-syncbench and serving shape: a closed loop with one
// requester sending back-to-back small parallel regions drawn from a
// seeded stream. Each region has a team of 1 (serialised) or nproc, a
// static, dynamic or guided schedule, and a fixed small span run through
// ForRange, one reduction combine per thread and one explicit barrier.
// Almost all of its time is fork/join, barriers, chunk grabs and trace
// event emission. One unit is a pass over the stream.
type regions struct {
	cfg  *config
	reqs []request

	team, serial       *latencyHist // untraced passes, default flight recorder
	teamOff, serialOff *latencyHist // untraced passes with the flight recorder off
	inline             *latencyHist // the reference: each body called inline
}

type request struct {
	team  int
	sched spanName // spForStatic, spForDynamic or spForGuided
	opts  []omp.Option
	nth   omp.Option
	a, b  int64
	want  int64
}

const (
	regionSpan   = 512  // iterations per region
	streamLength = 4096 // requests per pass
	probeLength  = 1024
)

func newRegions(cfg *config, probe bool) *regions {
	n := streamLength
	if probe {
		n = probeLength
	}
	r := &regions{cfg: cfg, reqs: make([]request, n)}
	r.team, r.serial = newLatencyHist(), newLatencyHist()
	r.teamOff, r.serialOff = newLatencyHist(), newLatencyHist()
	r.inline = newLatencyHist()
	return r
}

// setup draws the request stream from the seed and restarts the
// runtime's teams. It runs no warm-up pass: the first pass's first team
// region builds the team, one sample among millions.
func (r *regions) setup() error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	kinds := []struct {
		name spanName
		kind omp.SchedKind
	}{{spForStatic, omp.Static}, {spForDynamic, omp.Dynamic}, {spForGuided, omp.Guided}}
	for i := range r.reqs {
		q := &r.reqs[i]
		q.team = 1
		if rng.Intn(2) == 1 {
			q.team = r.cfg.threads
		}
		k := kinds[rng.Intn(len(kinds))]
		q.sched = k.name
		q.opts = []omp.Option{omp.Schedule(k.kind, int64(8<<rng.Intn(4))), omp.NoWait()}
		q.nth = omp.NumThreads(q.team)
		q.a, q.b = int64(1+rng.Intn(1000)), int64(rng.Intn(1000))
		q.want = q.a*regionSpan*(regionSpan-1)/2 + q.b*regionSpan
	}
	omp.TrimTeams()
	return nil
}

// inlineBody is the regions reference, as in EPCC syncbench: a region's
// work called inline, with no runtime involved.
//
//go:noinline
func inlineBody(a, b int64) int64 {
	var s int64
	for j := int64(0); j < regionSpan; j++ {
		s += a*j + b
	}
	return s
}

// pass runs the stream once; nil hists are not recorded. With inline set,
// each region is paired with its inline reference, in an order that
// alternates from request to request.
func (r *regions) pass(l *ledger, team, serial, inline *latencyHist) tally {
	var t tally
	for i := range r.reqs {
		q := &r.reqs[i]
		if inline != nil && i%2 == 0 {
			r.timeInline(q, inline, &t)
		}
		red := omp.NewInt64Reduction(omp.ReduceSum, 0)
		var ns int64
		if l == nil {
			body := func(th *omp.Thread) {
				var local int64
				omp.ForRange(th, regionSpan, func(lo, hi int64) {
					for j := lo; j < hi; j++ {
						local += q.a*j + q.b
					}
				}, q.opts...)
				red.Combine(local)
				omp.Barrier(th)
			}
			begin := time.Now()
			omp.Parallel(body, q.nth)
			ns = int64(time.Since(begin))
		} else {
			r.tracedRegion(l, q, red)
		}
		got := red.Value()
		if r.cfg.corrupt && i == 0 {
			got++
		}
		t.check(got == q.want, "region %d: reduction %d, want %d", i, got, q.want)
		if team != nil {
			if q.team == 1 {
				serial.add(ns)
			} else {
				team.add(ns)
			}
		}
		if inline != nil && i%2 == 1 {
			r.timeInline(q, inline, &t)
		}
	}
	return t
}

func (r *regions) timeInline(q *request, h *latencyHist, t *tally) {
	begin := time.Now()
	got := inlineBody(q.a, q.b)
	h.add(int64(time.Since(begin)))
	t.check(got == q.want, "inline reference: %d, want %d", got, q.want)
}

// tracedRegion is one region with a span around every call into the
// runtime: Parallel, each thread's body, ForRange and each chunk,
// Combine and Barrier.
func (r *regions) tracedRegion(l *ledger, q *request, red *omp.Int64Reduction) {
	u := l.newUnit()
	ps := spParallelSerial
	if q.team > 1 {
		ps = spParallelTeam
	}
	p := l.open(ps, 0, -1, u)
	omp.Parallel(func(th *omp.Thread) {
		b := l.open(spBody, th.Tid, p.id, u)
		f := l.open(q.sched, th.Tid, b.id, u)
		var local int64
		omp.ForRange(th, regionSpan, func(lo, hi int64) {
			c := l.open(spChunk, th.Tid, f.id, u)
			for j := lo; j < hi; j++ {
				local += q.a*j + q.b
			}
			l.close(c)
		}, q.opts...)
		l.close(f)
		c := l.open(spCombine, th.Tid, b.id, u)
		red.Combine(local)
		l.close(c)
		br := l.open(spBarrier, th.Tid, b.id, u)
		omp.Barrier(th)
		l.close(br)
		l.close(b)
	}, q.nth)
	l.close(p)
}

func (r *regions) unit(l *ledger) tally {
	if l != nil {
		return r.pass(l, nil, nil, nil)
	}
	return r.pass(nil, r.team, r.serial, r.inline)
}

// flightOffPass runs one untraced pass with the flight recorder off; the
// p50 difference to the default passes is trace.flight_ns_per_region.
func (r *regions) flightOffPass() {
	was := kmp.FlightRecording()
	omp.SetFlightRecorder(false)
	r.pass(nil, r.teamOff, r.serialOff, nil)
	omp.SetFlightRecorder(was)
}

func (r *regions) finish() tally { return tally{} }

func (r *regions) endToEnd() map[string]float64 {
	return map[string]float64{
		"primary_vs_ref":   r.team.quantile(0.5) / r.inline.quantile(0.5),
		"secondary_vs_ref": r.serial.quantile(0.5) / r.inline.quantile(0.5),
	}
}

func (r *regions) report() []figure {
	return []figure{
		{"region_p50_us", r.team.quantile(0.5) / 1e3, "us", r.team.n},
		{"region_p99_us", r.team.quantile(0.99) / 1e3, "us", r.team.n},
		{"serial_region_p50_us", r.serial.quantile(0.5) / 1e3, "us", r.serial.n},
		{"serial_region_p99_us", r.serial.quantile(0.99) / 1e3, "us", r.serial.n},
		{"inline_body_p50_us", r.inline.quantile(0.5) / 1e3, "us", r.inline.n},
	}
}

func (r *regions) layers(l *ledger) map[string]float64 {
	passes := float64(len(l.snaps))
	return map[string]float64{
		"kmp.fork.serial_ns":               median(l.selfTimes(spParallelSerial)),
		"kmp.fork.team_ns":                 median(l.selfTimes(spParallelTeam)),
		"omp.barrier.call_ns":              median(l.durations(spBarrier)),
		"kmp.dispatch.static.overhead_ns":  median(l.selfTimes(spForStatic)),
		"kmp.dispatch.dynamic.overhead_ns": median(l.selfTimes(spForDynamic)),
		"kmp.dispatch.guided.overhead_ns":  median(l.selfTimes(spForGuided)),
		"kmp.dispatch.chunks":              float64(l.calls[spChunk].Load()) / passes,
		"omp.reduce.count":                 float64(l.calls[spCombine].Load()) / passes,
		"omp.reduce.combine_ns":            median(l.durations(spCombine)),
		"trace.flight_ns_per_region": (r.team.quantile(0.5) - r.teamOff.quantile(0.5) +
			r.serial.quantile(0.5) - r.serialOff.quantile(0.5)) / 2,
	}
}
