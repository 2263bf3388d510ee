package kmp

import (
	"sync"
	"sync/atomic"
	"testing"
)

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

// Oversubscription: far more threads than cores must still complete.
func TestBarrierOversubscribed(t *testing.T) {
	checkBarrier(t, newCentralBarrier(128, WaitPassive), 128, 5)
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
