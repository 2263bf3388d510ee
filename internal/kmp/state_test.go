package kmp

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A region blocked mid-body must be visible to ReadStatus: one team of
// the right size, the fork's region name attached, and every member
// reporting the running state.
func TestReadStatusLiveRegion(t *testing.T) {
	loc := Ident{File: "state_test.go", Line: 1, Region: "parallel live"}
	var inside sync.WaitGroup
	inside.Add(4)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ForkCall(loc, 4, func(th *Thread) {
			inside.Done()
			<-release
		})
	}()
	// Every member marks itself running before its body starts, so once
	// all four are inside the body all four read as running.
	inside.Wait()

	st := ReadStatus()
	var tm *TeamStatus
	for i := range st.Teams {
		if strings.Contains(st.Teams[i].Region, "parallel live") {
			tm = &st.Teams[i]
		}
	}
	if tm == nil {
		t.Fatalf("no team with the live region in %+v", st.Teams)
	}
	if tm.Size != 4 {
		t.Fatalf("live team size = %d, want 4", tm.Size)
	}
	running := 0
	for _, w := range tm.Workers {
		if w.State == StateRunning.String() {
			if w.Region != loc.String() {
				t.Errorf("running worker g%d region = %q, want %q", w.Gtid, w.Region, loc)
			}
			running++
		}
	}
	if running != 4 {
		t.Errorf("running workers = %d, want 4 (workers: %+v)", running, tm.Workers)
	}
	close(release)
	<-done

	// After the join nobody is left running in that region.
	st = ReadStatus()
	for _, tm := range st.Teams {
		for _, w := range tm.Workers {
			if w.State == StateRunning.String() && w.Region == loc.String() {
				t.Errorf("post-join worker g%d still running in %q", w.Gtid, w.Region)
			}
		}
	}
}

// Location interning must round-trip and be stable across repeats.
func TestInternLocRoundTrip(t *testing.T) {
	a := Ident{File: "a.go", Line: 10, Region: "parallel"}
	b := Ident{File: "b.go", Line: 20, Region: "for"}
	ida, idb := internLoc(a), internLoc(b)
	if ida == 0 || idb == 0 || ida == idb {
		t.Fatalf("bad ids %d, %d", ida, idb)
	}
	if internLoc(a) != ida {
		t.Errorf("re-interning a changed its id")
	}
	if got := locByID(ida); got != a {
		t.Errorf("locByID(%d) = %v, want %v", ida, got, a)
	}
	if got := locByID(idb); got != b {
		t.Errorf("locByID(%d) = %v, want %v", idb, got, b)
	}
	if got := locByID(0); got != (Ident{}) {
		t.Errorf("locByID(0) = %v, want zero", got)
	}
}

// WorkerState string forms are what /debug/gomp/status serves; they are
// part of the surface, not just debug output.
func TestWorkerStateStrings(t *testing.T) {
	want := map[WorkerState]string{
		StateIdle:      "idle",
		StateSpinning:  "spinning",
		StateParked:    "parked",
		StateRunning:   "running",
		StateInBarrier: "in-barrier",
		StateStealing:  "stealing",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("state %d = %q, want %q", s, s.String(), str)
		}
	}
}

// The state word packs and unpacks losslessly, and the transition
// sequence never bleeds into the state or location fields.
func TestStateWordPacking(t *testing.T) {
	for _, s := range []WorkerState{StateIdle, StateRunning, StateStealing} {
		for _, seq := range []uint32{0, 1, stateSeqMask, stateSeqMask + 5} {
			for _, id := range []uint32{0, 1, 1 << 20, 1<<32 - 1} {
				gs, gid := unpackStateWord(packStateWord(s, seq, id))
				if gs != s || gid != id {
					t.Errorf("pack/unpack(%v, seq %d, %d) = (%v, %d)", s, seq, id, gs, gid)
				}
			}
		}
	}
}

// Every owner transition must change the packed word even when the state
// and location are unchanged — the watchdog relies on word inequality to
// tell "still in the same barrier" from "left and re-entered".
func TestStateWordSeqAdvances(t *testing.T) {
	th := &Thread{}
	th.setWait(StateInBarrier)
	w1 := th.state.Load()
	th.setWait(StateRunning)
	th.setWait(StateInBarrier)
	w2 := th.state.Load()
	if w1 == w2 {
		t.Fatalf("re-entering the same state produced an identical word %#x", w1)
	}
	s1, _ := unpackStateWord(w1)
	s2, _ := unpackStateWord(w2)
	if s1 != StateInBarrier || s2 != StateInBarrier {
		t.Fatalf("states = %v, %v, want in-barrier twice", s1, s2)
	}
}

// ReadStatus must be callable concurrently with fork/join/resize churn
// without racing or observing torn team state (run under -race).
func TestReadStatusDuringChurn(t *testing.T) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			loc := Ident{File: "churn.go", Line: g, Region: "parallel churn"}
			sizes := []int{2, 4, 3, 1}
			for i := 0; !stop.Load(); i++ {
				var n atomic.Int32
				ForkCall(loc, sizes[i%len(sizes)], func(th *Thread) {
					n.Add(1)
					th.Barrier()
				})
				if int(n.Load()) != sizes[i%len(sizes)] {
					t.Errorf("fork ran %d members, want %d", n.Load(), sizes[i%len(sizes)])
					return
				}
			}
		}(g)
	}
	deadline := time.After(200 * time.Millisecond)
	for {
		select {
		case <-deadline:
			stop.Store(true)
			wg.Wait()
			return
		default:
		}
		st := ReadStatus()
		for _, tm := range st.Teams {
			if tm.Size < 0 || tm.Size > len(tm.Workers) {
				t.Fatalf("torn team: size %d with %d workers", tm.Size, len(tm.Workers))
			}
			for _, w := range tm.Workers {
				if w.State == "" {
					t.Fatalf("worker g%d has empty state", w.Gtid)
				}
			}
		}
	}
}
