package kmp

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spinThenYield evaluates cond in a bounded spin loop, yielding the
// processor between probes and finally sleeping with backoff so that
// oversubscribed teams cannot livelock the scheduler.
func spinThenYield(policy WaitPolicy, cond func() bool) {
	spins := 128
	if policy == WaitActive {
		spins = 8192
	}
	for i := 0; i < spins; i++ {
		if cond() {
			return
		}
		if i&7 == 7 {
			runtime.Gosched()
		}
	}
	backoff := time.Microsecond
	const maxBackoff = 500 * time.Microsecond
	for !cond() {
		time.Sleep(backoff)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// centralBarrier is the team barrier, a reusable rendezvous for a
// fixed-size team: all n threads must call Wait before any returns, for
// every generation, and it stays safe under oversubscription (more team
// threads than processors). It is a sense-reversing central counter: the
// last thread to arrive resets the count and bumps the generation word,
// releasing waiters spinning (then sleeping, with bounded backoff) on it.
// O(n) arrivals on one hot counter, but allocation-free — its
// channel-per-generation predecessor put one make(chan) on every barrier of
// every warm region, which the zero-allocation serving path cannot afford.
type centralBarrier struct {
	n      int
	policy WaitPolicy
	count  atomic.Int64
	seq    atomic.Uint64
}

func newCentralBarrier(n int, policy WaitPolicy) *centralBarrier {
	if n < 1 {
		panic("kmp: barrier size must be >= 1")
	}
	return &centralBarrier{n: n, policy: policy}
}

// Wait blocks until all n threads of the current generation have arrived.
func (b *centralBarrier) Wait() {
	if b.n == 1 {
		return
	}
	s := b.seq.Load()
	if b.count.Add(1) == int64(b.n) {
		// Reset before release: a released thread may re-arrive at the
		// next barrier generation immediately.
		b.count.Store(0)
		b.seq.Add(1)
		return
	}
	spinThenYield(b.policy, func() bool { return b.seq.Load() != s })
}
