package driver

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The watch loop: an immediate first pass, then a re-run when — and
// only when — the polled source signature changes.
func TestWatchRerunsOnChange(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	d, err := New(Config{Module: root})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reports := make(chan *Report, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Watch(ctx, 10*time.Millisecond, func(rep *Report, err error) {
			if err == nil {
				reports <- rep
			}
		})
	}()
	waitReport := func(what string) *Report {
		select {
		case rep := <-reports:
			return rep
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
			return nil
		}
	}
	first := waitReport("initial pass")
	if first.Transformed != 1 {
		t.Fatalf("initial pass: %s", first.Summary())
	}
	// An edit triggers a pass that re-transforms exactly the edit. The
	// write also bumps mtime, which is all the poller looks at.
	writeTree(t, root, map[string]string{"a.go": strings.Replace(pragmaSrc, "Sum", "Sum2", 1)})
	second := waitReport("pass after edit")
	if second.Transformed != 1 || second.Cached != 0 {
		t.Fatalf("pass after edit: %s", second.Summary())
	}
	// A new file is a signature change too.
	writeTree(t, root, map[string]string{"b.go": pragmaSrc})
	third := waitReport("pass after new file")
	if third.Transformed != 1 || third.Cached != 1 {
		t.Fatalf("pass after new file: %s", third.Summary())
	}
	cancel()
	<-done
}

// An edit that lands while the first pass is still running must trigger
// a second pass: the baseline signature is the one the first pass read.
func TestWatchSeesEditDuringFirstPass(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	d, err := New(Config{Module: root})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A different length, so the size half of the signature changes even
	// when the rewrite falls within the same mtime tick.
	edited := strings.Replace(pragmaSrc, "Sum", "SumEdited", 1)
	passes := make(chan *Report, 16)
	done := make(chan struct{})
	first := true
	go func() {
		defer close(done)
		d.Watch(ctx, 10*time.Millisecond, func(rep *Report, err error) {
			if first {
				first = false
				if werr := os.WriteFile(filepath.Join(root, "a.go"), []byte(edited), 0o644); werr != nil {
					t.Error(werr)
				}
			}
			if err == nil {
				passes <- rep
			}
		})
	}()
	for i, what := range []string{"initial pass", "pass after edit during the first pass"} {
		select {
		case rep := <-passes:
			if rep.Transformed != 1 {
				t.Errorf("%s: %s", what, rep.Summary())
			}
		case <-ctx.Done():
			t.Errorf("timed out waiting for %s (pass %d)", what, i+1)
		}
	}
	cancel()
	<-done
}

// A same-size edit whose mtime matches the previous signature's — a
// rewrite within one mtime tick, simulated by restoring the mtime — must
// still trigger a pass: the file is racily clean, so its content decides.
func TestWatchSeesSameSizeEditInOneTick(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	path := filepath.Join(root, "a.go")
	d, err := New(Config{Module: root})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	edited := strings.Replace(pragmaSrc, "Sum", "Tot", 1)
	if len(edited) != len(pragmaSrc) {
		t.Fatal("the edit must keep the file size")
	}
	passes := make(chan *Report, 16)
	done := make(chan struct{})
	first := true
	go func() {
		defer close(done)
		d.Watch(ctx, 10*time.Millisecond, func(rep *Report, err error) {
			if first {
				first = false
				info, serr := os.Stat(path)
				if serr != nil {
					t.Error(serr)
				} else if werr := os.WriteFile(path, []byte(edited), 0o644); werr != nil {
					t.Error(werr)
				} else if cerr := os.Chtimes(path, info.ModTime(), info.ModTime()); cerr != nil {
					t.Error(cerr)
				}
			}
			if err == nil {
				passes <- rep
			}
		})
	}()
	for i, what := range []string{"initial pass", "pass after the same-size edit"} {
		select {
		case rep := <-passes:
			if rep.Transformed != 1 {
				t.Errorf("%s: %s", what, rep.Summary())
			}
		case <-ctx.Done():
			t.Errorf("timed out waiting for %s (pass %d)", what, i+1)
		}
	}
	cancel()
	<-done
}

// Only racily clean files are hashed: a tree whose files have been quiet
// for longer than racyWindow costs stats alone.
func TestSignatureHashesOnlyRacyFiles(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"old.go": pragmaSrc, "new.go": pragmaSrc})
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(root, "old.go"), old, old); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Module: root})
	if err != nil {
		t.Fatal(err)
	}
	first, err := signature(d.cfg, treeSig{})
	if err != nil {
		t.Fatal(err)
	}
	if first.files["old.go"].hashed || !first.files["new.go"].hashed {
		t.Fatalf("hashed old.go=%v new.go=%v, want false and true",
			first.files["old.go"].hashed, first.files["new.go"].hashed)
	}
	// Once the previous stat time is past the window, new.go is quiet too.
	prev := first
	prev.at += int64(2 * racyWindow)
	next, err := signature(d.cfg, prev)
	if err != nil {
		t.Fatal(err)
	}
	for rel, fs := range next.files {
		if fs.hashed {
			t.Errorf("%s hashed in a quiet tree", rel)
		}
	}
	if !sigsEqual(first, next) {
		t.Error("an unchanged tree's signatures differ")
	}
}

// Stable sources produce no further passes: the cache decides what to
// transform, the signature decides whether to run at all.
func TestWatchIdleRunsNothing(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	d, err := New(Config{Module: root})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	passes := make(chan *Report, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Watch(ctx, time.Millisecond, func(rep *Report, err error) {
			if err == nil {
				passes <- rep
			}
		})
	}()
	<-passes
	time.Sleep(50 * time.Millisecond)
	cancel()
	// Wait for the loop to exit, so it cannot still be polling the
	// module while the test's temporary directory is removed.
	<-done
	select {
	case rep := <-passes:
		t.Fatalf("idle watch ran a pass: %s", rep.Summary())
	default:
	}
}
