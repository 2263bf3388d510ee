package kmp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// rendezvous is the sense-reversing central counter both team barriers are
// built on (centralBarrier here, cancelBarrier in cancel.go). The last
// thread to arrive resets the count and bumps the generation word; earlier
// arrivals wait for the bump spin-then-park: a bounded spin on the word
// (128 probes under OMP_WAIT_POLICY=passive, 8192 under active, yielding
// the processor every 8 so oversubscribed teams cannot livelock the
// scheduler), then a park on the barrier's condition variable, which the
// releasing arrival broadcasts. A parked waiter therefore wakes on the
// release itself rather than on a timer: Go rounds sub-millisecond sleeps
// up to the netpoller's millisecond tick once a processor goes idle.
//
// The wake is Dekker-ordered so none is lost and a release nobody sleeps
// through costs one atomic load: a waiter increments sleepers and then
// re-checks the generation, both under mu; the releaser bumps the generation
// and then loads sleepers, taking mu and broadcasting only when it is
// non-zero. With sequentially consistent atomics at least one side sees the
// other's write, and holding mu from the re-check to cond.Wait means the
// broadcast cannot fall between them. Everything lives inside the barrier,
// so waits allocate nothing; cond.L must point at mu before first use.
type rendezvous struct {
	count    atomic.Int64
	seq      atomic.Uint64
	sleepers atomic.Int32
	mu       sync.Mutex
	cond     sync.Cond
}

// arrive counts the caller in for the current generation of an n-thread
// barrier. It returns the generation sampled before arriving and whether the
// caller completed it, in which case the caller must release.
func (r *rendezvous) arrive(n int) (s uint64, last bool) {
	s = r.seq.Load()
	return s, r.count.Add(1) == int64(n)
}

// release opens the current generation. The count is reset before the bump:
// a released thread may re-arrive at the next generation immediately.
func (r *rendezvous) release() {
	r.count.Store(0)
	r.seq.Add(1)
	r.wake()
}

// wake broadcasts to parked waiters, if any. Callers publish the condition
// the waiters re-check (the generation bump, or a cancellation flag) first.
func (r *rendezvous) wake() {
	if r.sleepers.Load() > 0 {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// passed reports whether generation s has been released, or stop (when
// non-nil) has been raised.
func (r *rendezvous) passed(s uint64, stop *atomic.Bool) bool {
	return r.seq.Load() != s || stop != nil && stop.Load()
}

// await blocks until generation s is released or stop is raised: the
// spin-then-park wait described on rendezvous.
func (r *rendezvous) await(s uint64, policy WaitPolicy, stop *atomic.Bool) {
	spins := 128
	if policy == WaitActive {
		spins = 8192
	}
	for i := 0; i < spins; i++ {
		if r.passed(s, stop) {
			return
		}
		if i&7 == 7 {
			runtime.Gosched()
		}
	}
	r.mu.Lock()
	r.sleepers.Add(1)
	for !r.passed(s, stop) {
		r.cond.Wait()
	}
	r.sleepers.Add(-1)
	r.mu.Unlock()
}

// centralBarrier is the team barrier, a reusable rendezvous for a
// fixed-size team: all n threads must call Wait before any returns, for
// every generation, and it stays safe under oversubscription (more team
// threads than processors). O(n) arrivals on one hot counter, but
// allocation-free — its channel-per-generation predecessor put one
// make(chan) on every barrier of every warm region, which the
// zero-allocation serving path cannot afford.
type centralBarrier struct {
	n      int
	policy WaitPolicy
	rendezvous
}

func newCentralBarrier(n int, policy WaitPolicy) *centralBarrier {
	if n < 1 {
		panic("kmp: barrier size must be >= 1")
	}
	b := &centralBarrier{n: n, policy: policy}
	b.cond.L = &b.mu
	return b
}

// Wait blocks until all n threads of the current generation have arrived.
func (b *centralBarrier) Wait() {
	if b.n == 1 {
		return
	}
	s, last := b.arrive(b.n)
	if last {
		b.release()
		return
	}
	b.await(s, b.policy, nil)
}
