package kmp

// OpenMP cancellation (OpenMP 5.2 §11): the runtime half of the
// `cancel {parallel|for|taskgroup}` and `cancellation point` directives, and
// the teardown path of context-bound regions (ForkCallErr). Activation is a
// set of flags — one per team for the parallel construct, one per
// worksharing-loop instance, one per taskgroup — observed at the cancellation
// points the standard names: cancel / cancellation point directives, implicit
// and explicit barriers, and task scheduling points. Loop dispatch
// additionally checks between chunk grabs so a cancelled loop stops handing
// out iterations, mirroring libomp's __kmpc_cancel / __kmpc_cancellationpoint
// pair.
//
// Activation requires the team to be cancellable: either the cancel-var ICV
// (OMP_CANCELLATION) is set, or the region was launched through the
// error/context entry point, which is always cancellable so deadlines can
// tear the team down.

// CancelKind selects the construct a cancel or cancellation point binds to —
// the argument of the cancel directive.
type CancelKind int

const (
	// CancelParallel cancels the innermost enclosing parallel region: every
	// thread branches to the end of the region at its next cancellation
	// point, and unstarted explicit tasks of the region are discarded.
	CancelParallel CancelKind = iota + 1
	// CancelLoop cancels the innermost enclosing worksharing loop: no
	// further chunks are dispatched for that loop instance.
	CancelLoop
	// CancelTaskgroup cancels the innermost enclosing taskgroup: its
	// not-yet-started tasks (including descendants) are discarded.
	CancelTaskgroup
)

// String returns the directive-argument spelling.
func (k CancelKind) String() string {
	switch k {
	case CancelParallel:
		return "parallel"
	case CancelLoop:
		return "for"
	case CancelTaskgroup:
		return "taskgroup"
	}
	return "?"
}

// cancel activates region-level cancellation for the team. Idempotent and
// safe from any goroutine (the context watcher calls it from outside the
// team). Threads waiting at the cancellable barrier observe the flag in
// their wait condition, and those already parked there are woken — region
// cancel, context deadlines and ParallelErr errors all release through here.
// No channel latch to close, so cancellable regions allocate nothing per
// fork.
func (tm *Team) cancel() {
	tm.cancelRegion.Store(true)
	tm.cbar.wake()
}

// Cancellable reports whether cancellation can be activated for this
// thread's team.
func (t *Thread) Cancellable() bool {
	return t != nil && t.team != nil && t.team.cancellable
}

// Cancel is the lowering of the `cancel` directive (__kmpc_cancel): it
// requests cancellation of the innermost enclosing construct of the given
// kind and reports whether the encountering thread must branch to that
// construct's end. False means cancellation is not active — the team is not
// cancellable, or (for taskgroup) no taskgroup is open — and execution
// continues normally, as the standard specifies for OMP_CANCELLATION=false.
func (t *Thread) Cancel(kind CancelKind) bool {
	if t == nil || t.team == nil || !t.team.cancellable {
		return false
	}
	tm := t.team
	if col, rec := traceSinks(); rec {
		t.record(col, TraceEvent{Kind: TraceCancel, Loc: tm.loc, When: TraceNow(), Arg0: int64(kind)})
	}
	switch kind {
	case CancelParallel:
		tm.cancel()
		return true
	case CancelLoop:
		if tm.cancelRegion.Load() {
			return true
		}
		if t.curWsSeq == 0 {
			return false // not inside a worksharing loop
		}
		// First cancel wins the single loop slot: a cancel on a later
		// nowait loop must not clobber (and thereby un-cancel) an earlier
		// instance that slower threads are still draining. The slot clears
		// at the next full barrier, when no thread can be inside an older
		// loop — between two barriers at most one loop cancellation is
		// tracked, and a second one is dropped, the conforming fallback
		// (activation simply does not occur).
		tm.cancelledLoop.CompareAndSwap(0, t.curWsSeq)
		return tm.cancelledLoop.Load() == t.curWsSeq
	case CancelTaskgroup:
		if tm.cancelRegion.Load() {
			return true
		}
		g := t.curGroup
		if g == nil {
			return false // not inside a taskgroup
		}
		g.cancelled.Store(true)
		return true
	}
	return false
}

// CancellationPoint is the lowering of the `cancellation point` directive
// (__kmpc_cancellationpoint): it reports whether cancellation of the given
// kind is active for the innermost enclosing construct, in which case the
// encountering thread must branch to that construct's end.
func (t *Thread) CancellationPoint(kind CancelKind) bool {
	if t == nil || t.team == nil {
		return false
	}
	switch kind {
	case CancelParallel:
		return t.team.cancelRegion.Load()
	case CancelLoop:
		return t.loopCancelled()
	case CancelTaskgroup:
		return t.team.cancelRegion.Load() || groupCancelled(t.curGroup)
	}
	return false
}

// loopCancelled reports whether the worksharing-loop instance the thread is
// currently executing — or its whole region — has been cancelled. Loop
// instances are identified by the per-thread worksharing sequence number,
// which the OpenMP same-sequence rule keeps in agreement across the team.
func (t *Thread) loopCancelled() bool {
	if t == nil || t.team == nil {
		return false
	}
	if t.team.cancelRegion.Load() {
		return true
	}
	seq := t.curWsSeq
	return seq != 0 && t.team.cancelledLoop.Load() == seq
}

// groupCancelled walks the taskgroup nesting chain: cancelling a group
// discards the unstarted tasks of every group nested inside it.
func groupCancelled(g *taskGroup) bool {
	for ; g != nil; g = g.parent {
		if g.cancelled.Load() {
			return true
		}
	}
	return false
}

// discarded reports whether a task must be skipped rather than executed:
// its region was cancelled, or any taskgroup enclosing it was.
func (n *taskNode) discarded() bool {
	if n.team != nil && n.team.cancelRegion.Load() {
		return true
	}
	return groupCancelled(n.group)
}

// cancelBarrier is the rendezvous used by cancellable teams in place of the
// team's centralBarrier: the same spin-then-park central counter (barrier.go),
// whose waiters also watch the team's cancellation flag, so activation of
// region cancellation releases every waiting thread immediately — barriers
// are cancellation points, and a cancelled team must not deadlock waiting for
// threads that already branched to the region's end. Team.cancel raises the
// flag and then wakes the parked waiters, the same Dekker order as a release.
// Re-arming it between regions is one atomic store, which is what keeps
// cancellable (context-bound / error-propagating) regions on the
// zero-allocation fork fast path.
type cancelBarrier struct {
	rendezvous
}

func (b *cancelBarrier) reset() {
	b.count.Store(0)
	// seq is left running: waiters compare against the value they sampled
	// at arrival, not against zero.
}

// wait blocks until all tm.n threads arrive or the region is cancelled.
func (b *cancelBarrier) wait(tm *Team) {
	if tm.cancelRegion.Load() {
		return
	}
	s, last := b.arrive(tm.n)
	if last {
		// Every thread is inside the barrier, so none is inside a loop:
		// the releaser can safely retire the loop-cancellation slot for
		// the next batch of worksharing instances (see Thread.Cancel)
		// before releasing.
		tm.cancelledLoop.Store(0)
		b.release()
		return
	}
	b.await(s, tm.waitPolicy(), &tm.cancelRegion)
}
