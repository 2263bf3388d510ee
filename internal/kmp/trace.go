package kmp

import (
	"sync"
	"sync/atomic"
	"time"
)

// Observability layer: an OMPT-style tools interface for the runtime.
//
// The paper names compiler-driven instrumentation ("similar to gprof", via
// the Tracy library) as its next step; this file is the runtime half of
// that item, modeled on the OpenMP OMPT callbacks but adapted to a
// collector architecture that keeps the measurement from perturbing the
// measured:
//
//   - Every runtime event site checks one atomic pointer load
//     (ActiveCollector). With no collector installed that load is the
//     entire cost.
//
//   - With a collector installed, the emitting thread appends the event to
//     its own fixed-size single-producer/single-consumer ring buffer: a
//     couple of plain stores plus two atomic index operations, no locks,
//     no allocation, no shared cache lines with other producers.
//
//   - A drainer (the gomp/internal/trace profiler) empties all rings at
//     region joins and on demand (Flush). When a ring fills between
//     drains the producer drops the event and counts the drop — buffered
//     history is bounded, never corrupted.
//
// Events carry monotonic nanosecond timestamps from one process-wide
// epoch, durations for span-shaped kinds, and two per-kind payload words
// (chunk sizes, steal victims, dependence release counts — see the kind
// constants), which is what lets the trace package reconstruct per-thread
// timelines and flow arrows after the fact.

// TraceKind labels runtime events for the instrumentation hook.
type TraceKind int

const (
	// TraceForkBegin fires when a parallel region forks. When is the fork
	// timestamp.
	TraceForkBegin TraceKind = iota
	// TraceForkEnd fires when a parallel region joins. When is the fork
	// timestamp and Dur the whole region duration, so the event is a
	// complete span.
	TraceForkEnd
	// TraceBarrier fires when a thread leaves an explicit barrier. When is
	// the barrier arrival and Dur the wait (including any tasks executed
	// while waiting, barriers being task scheduling points).
	TraceBarrier
	// TraceLoopInit fires when a thread initialises a dynamic loop.
	// Arg0 is the trip count, Arg1 the schedule's chunk size (0 = policy
	// default).
	TraceLoopInit
	// TraceLoopFini fires when a thread finishes a dynamic loop. When is
	// the thread's own loop entry and Dur its participation time; Loc is
	// the loop's location (matching its TraceLoopInit). Static loops emit
	// it too, located at their region; for them Arg0 is the thread's
	// on-CPU time over the span when a collector is installed and the
	// OS thread's CPU clock could measure it (0 otherwise).
	TraceLoopFini
	// TraceLoopSteal fires when a dry thread splits off half of a
	// teammate's iteration range (nonmonotonic stealing dispatch).
	// Arg0 is the victim's global thread id, Arg1 the number of
	// iterations taken.
	TraceLoopSteal
	// TraceTaskSpawn fires when a thread defers an explicit task.
	// Arg0 is the number of depend items, Arg1 the priority clause value.
	TraceTaskSpawn
	// TraceTaskSteal fires when a thread steals a task from a teammate.
	// Arg0 is the victim's global thread id.
	TraceTaskSteal
	// TraceTaskgroup fires when a thread opens a taskgroup region.
	TraceTaskgroup
	// TraceTaskloop fires when a thread starts carving a taskloop.
	// Arg0 is the trip count.
	TraceTaskloop
	// TraceCancel fires when a thread encounters a cancel directive on a
	// cancellable team (whether or not activation succeeds). Arg0 is the
	// CancelKind.
	TraceCancel
	// TraceTaskRun fires when a deferred task's body completes. When is
	// the execution start and Dur the body time, so the event is a
	// complete span; Loc is the spawning construct's location.
	TraceTaskRun
	// TraceTaskDepStall fires when a spawned task is withheld from the
	// ready queues because depend-clause predecessors are outstanding.
	// Arg0 is the unresolved predecessor count at spawn.
	TraceTaskDepStall
	// TraceTaskDepRelease fires when a completing task releases
	// dependence successors. Arg0 is the number of successors that became
	// ready, Arg1 the number of successor edges resolved.
	TraceTaskDepRelease
)

// String returns a stable lower-case name for the kind, used by exporters
// and metrics.
func (k TraceKind) String() string {
	switch k {
	case TraceForkBegin:
		return "fork-begin"
	case TraceForkEnd:
		return "fork-end"
	case TraceBarrier:
		return "barrier"
	case TraceLoopInit:
		return "loop-init"
	case TraceLoopFini:
		return "loop-fini"
	case TraceLoopSteal:
		return "loop-steal"
	case TraceTaskSpawn:
		return "task-spawn"
	case TraceTaskSteal:
		return "task-steal"
	case TraceTaskgroup:
		return "taskgroup"
	case TraceTaskloop:
		return "taskloop"
	case TraceCancel:
		return "cancel"
	case TraceTaskRun:
		return "task-run"
	case TraceTaskDepStall:
		return "dep-stall"
	case TraceTaskDepRelease:
		return "dep-release"
	}
	return "unknown"
}

// TraceEvent is one instrumentation record.
type TraceEvent struct {
	Kind TraceKind
	Loc  Ident
	// Tid is the team-local thread number, Gtid the global thread id of
	// the emitting thread (the timeline track identity: team-local ids
	// collide across concurrent teams, global ids do not).
	Tid  int
	Gtid int
	// NThreads is the team size on fork events.
	NThreads int
	// When is a monotonic timestamp in nanoseconds since the process
	// trace epoch (TraceNow's clock). For span-shaped kinds it is the
	// span start.
	When int64
	// Dur is the span duration in nanoseconds for span-shaped kinds
	// (fork-end, barrier, loop-fini, task-run), 0 otherwise.
	Dur int64
	// Arg0, Arg1 are per-kind payload words; see the kind constants.
	Arg0, Arg1 int64
}

var traceEpoch = time.Now()

// TraceNow returns the current monotonic trace timestamp: nanoseconds
// since the process trace epoch, the clock TraceEvent.When uses.
func TraceNow() int64 { return int64(time.Since(traceEpoch)) }

// ---------------------------------------------------------------- ring

// traceRing is one thread's event buffer: a fixed-size single-producer/
// single-consumer ring. The owning thread pushes (plain slot store +
// atomic head publish); the collector's drainer pops under the collector
// mutex (slot read + atomic tail publish). head/tail only grow, so
// head-tail is the queued count and a full ring drops at the producer.
type traceRing struct {
	gtid  int
	mask  uint64
	buf   []TraceEvent
	_     pad
	head  atomic.Uint64 // next write slot; owner-only stores
	tail  atomic.Uint64 // next read slot; drainer-only stores
	drops atomic.Uint64
	_     pad
}

func (r *traceRing) push(ev TraceEvent) {
	h := r.head.Load()
	if h-r.tail.Load() >= uint64(len(r.buf)) {
		r.drops.Add(1)
		return
	}
	r.buf[h&r.mask] = ev
	r.head.Store(h + 1)
}

// ----------------------------------------------------------- collector

// DefaultRingSize is the per-thread event capacity a zero-configured
// Collector uses. At ~128 bytes per event a ring costs ~512 KiB; rings
// drain at every region join, so the capacity only bounds the history of
// a single region per thread.
const DefaultRingSize = 4096

// Collector receives runtime events: the analog of an OMPT tool. Install
// with SetCollector; at most one collector is active at a time (as OMPT
// allows one tool). Threads lazily attach a per-thread ring on their
// first event; Flush drains every ring into the Sink.
type Collector struct {
	// Sink receives drained events in per-ring batches, called with the
	// collector's internal lock held — it must not call back into the
	// Collector. Batches from one ring are in emission order; batches
	// from different rings interleave arbitrarily (order cross-thread by
	// TraceEvent.When). Nil discards events at drain.
	Sink func([]TraceEvent)

	// BridgeGoTrace additionally mirrors parallel-region and task spans
	// into Go's runtime/trace as user regions when a runtime trace is
	// being recorded, so `go tool trace` shows omp structure inline with
	// scheduler data. The bridge calls runtime/trace at the event site
	// (regions and tied tasks begin and end on one goroutine, which is
	// what runtime/trace regions require), not at drain time.
	BridgeGoTrace bool

	ringSize uint64

	mu    sync.Mutex
	rings []*traceRing
}

// NewCollector returns a collector whose per-thread rings buffer ringSize
// events (rounded up to a power of two; <= 0 means DefaultRingSize).
func NewCollector(ringSize int) *Collector {
	n := uint64(DefaultRingSize)
	if ringSize > 0 {
		n = 1
		for n < uint64(ringSize) {
			n <<= 1
		}
	}
	return &Collector{ringSize: n}
}

// newRing allocates and registers a ring for one thread.
func (c *Collector) newRing(gtid int) *traceRing {
	n := c.ringSize
	if n == 0 {
		n = DefaultRingSize
	}
	r := &traceRing{gtid: gtid, mask: n - 1, buf: make([]TraceEvent, n)}
	c.mu.Lock()
	c.rings = append(c.rings, r)
	c.mu.Unlock()
	return r
}

// Flush drains every ring into the Sink and returns the number of events
// delivered. Safe to call concurrently with producers and with itself.
func (c *Collector) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	var batch []TraceEvent
	for _, r := range c.rings {
		t, h := r.tail.Load(), r.head.Load()
		if t == h {
			continue
		}
		batch = batch[:0]
		for i := t; i != h; i++ {
			batch = append(batch, r.buf[i&r.mask])
		}
		r.tail.Store(h)
		total += len(batch)
		if c.Sink != nil {
			c.Sink(batch)
		}
	}
	return total
}

// Drops returns the total number of events dropped on full rings since
// the collector was created.
func (c *Collector) Drops() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, r := range c.rings {
		n += r.drops.Load()
	}
	return n
}

var activeCol atomic.Pointer[Collector]

// SetCollector installs c as the global event collector; nil disables
// tracing. Costs one atomic load per runtime event site when disabled.
// Uninstalling does not drain: the previous collector's Flush still
// returns whatever its rings buffered (racing emitters may land a last
// event in the old collector's rings, where Flush finds it).
func SetCollector(c *Collector) { activeCol.Store(c) }

// ActiveCollector returns the installed collector, nil when tracing is
// disabled — the one-atomic-load enablement check event sites use.
func ActiveCollector() *Collector { return activeCol.Load() }

// emit appends ev to this thread's ring in c, stamping the thread
// identity. Owner-only: t must be the calling goroutine's own thread.
// The per-collector ring cache means a reinstalled collector keeps its
// rings while a fresh collector gets fresh ones.
func (t *Thread) emit(c *Collector, ev TraceEvent) {
	r := t.trcRing
	if r == nil || t.trcOwner != c {
		r = c.newRing(t.Gtid)
		t.trcRing, t.trcOwner = r, c
	}
	ev.Tid = t.Tid
	ev.Gtid = t.Gtid
	r.push(ev)
}
