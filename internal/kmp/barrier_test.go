package kmp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var waitPolicies = []struct {
	name   string
	policy WaitPolicy
}{{"passive", WaitPassive}, {"active", WaitActive}}

// checkBarrier drives n goroutines through gens generations and verifies no
// thread ever enters generation g+1 while another is still in g — the
// defining property of a barrier.
func checkBarrier(t *testing.T, b *centralBarrier, n, gens int) {
	t.Helper()
	var phase atomic.Int64 // sum of per-thread generation counters
	var wg sync.WaitGroup
	fail := make(chan string, n)
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < gens; g++ {
				phase.Add(1)
				b.Wait()
				// After the barrier, every thread must have
				// arrived at least g+1 times: the total is at
				// least n*(g+1).
				if got := phase.Load(); got < int64(n*(g+1)) {
					select {
					case fail <- "":
					default:
					}
					return
				}
				b.Wait() // second barrier separates the read from the next inc
			}
		}()
	}
	wg.Wait()
	select {
	case <-fail:
		t.Fatalf("barrier released a thread before all %d arrived", n)
	default:
	}
}

func TestBarrierAlgorithms(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33} {
		checkBarrier(t, newCentralBarrier(n, WaitPassive), n, 25)
	}
}

// Oversubscription: far more threads than cores must still complete,
// under either wait policy.
func TestBarrierOversubscribed(t *testing.T) {
	for _, wp := range waitPolicies {
		t.Run(wp.name, func(t *testing.T) {
			checkBarrier(t, newCentralBarrier(128, wp.policy), 128, 5)
		})
	}
}

// awaitParked yields until at least one waiter of r is parked: no timing
// sleeps, so the test exercises the park path however slow the host is.
func awaitParked(r *rendezvous) {
	for r.sleepers.Load() == 0 {
		runtime.Gosched()
	}
}

// The park path: in every generation one thread arrives only after it has
// seen its teammate parked, so the release must come through the wake —
// a lost wake-up hangs the test. The late role alternates between the two
// threads, and sleepers must drain back to zero.
func TestBarrierParkedRelease(t *testing.T) {
	const gens = 1000
	for _, wp := range waitPolicies {
		t.Run(wp.name, func(t *testing.T) {
			b := newCentralBarrier(2, wp.policy)
			var arrived [2]atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan string, 2)
			for id := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for g := 0; g < gens; g++ {
						if g%2 == id {
							awaitParked(&b.rendezvous)
						}
						arrived[id].Add(1)
						b.Wait()
						if other := arrived[1-id].Load(); other < int64(g+1) {
							errs <- fmt.Sprintf("thread %d left generation %d with its teammate at %d arrivals", id, g, other)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if n := b.sleepers.Load(); n != 0 {
				t.Fatalf("sleepers = %d after the last generation, want 0", n)
			}
		})
	}
}

// Cancellation must wake a thread parked in the cancellable barrier: region
// cancel, context deadlines and ParallelErr errors all release through
// Team.cancel, and the released team must run the next region normally.
func TestCancelWakesParkedBarrier(t *testing.T) {
	ResetICV()
	defer ResetICV()
	// nextRegion runs a warm region with a barrier on the team the previous
	// region used and checks it behaves normally.
	nextRegion := func(t *testing.T, prev *Team) {
		t.Helper()
		var ran atomic.Int32
		var tm *Team
		err := ForkCallErr(Ident{}, 2, nil, func(th *Thread) error {
			if th.Tid == 0 {
				tm = th.team
			}
			th.Barrier()
			ran.Add(1)
			return nil
		})
		if err != nil || ran.Load() != 2 {
			t.Fatalf("next region: err=%v, %d bodies finished, want nil and 2", err, ran.Load())
		}
		if tm != prev {
			t.Fatalf("next region ran on a different team")
		}
	}
	for _, wp := range waitPolicies {
		UpdateICV(func(v *ICV) { v.WaitPolicy = wp.policy })
		t.Run(wp.name+"/error", func(t *testing.T) {
			want := errors.New("thread 1 failed")
			var tm *Team
			err := ForkCallErr(Ident{}, 2, nil, func(th *Thread) error {
				if th.Tid == 0 {
					tm = th.team
					th.Barrier()
					return nil
				}
				awaitParked(&th.team.cbar.rendezvous)
				return want
			})
			if err != want {
				t.Fatalf("region returned %v, want %v", err, want)
			}
			if n := tm.cbar.sleepers.Load(); n != 0 {
				t.Fatalf("sleepers = %d after the region, want 0", n)
			}
			nextRegion(t, tm)
		})
		t.Run(wp.name+"/deadline", func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			var tm *Team
			var cancelled atomic.Bool
			ForkCallCtx(Ident{}, 2, ctx, func(th *Thread) {
				if th.Tid == 0 {
					tm = th.team
					th.Barrier()
					cancelled.Store(th.CancellationPoint(CancelParallel))
					return
				}
				// Thread 1 never arrives: only the deadline's cancel
				// can release its parked teammate.
				r := &th.team.cbar.rendezvous
				for r.sleepers.Load() == 0 && ctx.Err() == nil {
					runtime.Gosched()
				}
				<-ctx.Done()
			})
			if !cancelled.Load() {
				t.Fatal("thread 0 left the barrier without the region being cancelled")
			}
			if n := tm.cbar.sleepers.Load(); n != 0 {
				t.Fatalf("sleepers = %d after the region, want 0", n)
			}
			nextRegion(t, tm)
		})
	}
}

func TestBarrierSizeOne(t *testing.T) {
	b := newCentralBarrier(1, WaitPassive)
	for i := 0; i < 100; i++ {
		b.Wait() // must never block
	}
}

func TestBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newCentralBarrier(0) did not panic")
		}
	}()
	newCentralBarrier(0, WaitPassive)
}

// BenchmarkBarrierLateArrival measures the barrier layer's release latency:
// in a 2-thread barrier one thread arrives late by 0, 50 or 500 µs, and the
// metric is how long after that late arrival the early, waiting thread is
// running again — its wake-up cost once it has spun out and parked.
// release-ns is the mean, release-p99-ns the tail; ns/op is the whole cycle,
// late delay included.
func BenchmarkBarrierLateArrival(b *testing.B) {
	for _, wp := range waitPolicies {
		for _, late := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond} {
			b.Run(fmt.Sprintf("%s/late=%dus", wp.name, late.Microseconds()), func(b *testing.B) {
				bar := newCentralBarrier(2, wp.policy)
				lat := make([]int64, b.N)
				var exit atomic.Int64
				done := make(chan struct{})
				go func() {
					defer close(done)
					for range b.N {
						bar.Wait() // the early thread: waits out the delay
						exit.Store(TraceNow())
						bar.Wait() // hands the exit time over
					}
				}()
				b.ResetTimer()
				for i := range b.N {
					// Busy-wait the delay: a timed sleep would add its
					// own timer rounding to the late side.
					for start := TraceNow(); TraceNow()-start < int64(late); {
						runtime.Gosched()
					}
					arrive := TraceNow()
					bar.Wait()
					bar.Wait()
					lat[i] = exit.Load() - arrive
				}
				b.StopTimer()
				<-done
				slices.Sort(lat)
				var sum int64
				for _, l := range lat {
					sum += l
				}
				b.ReportMetric(float64(sum)/float64(len(lat)), "release-ns")
				b.ReportMetric(float64(lat[len(lat)*99/100]), "release-p99-ns")
			})
		}
	}
}
