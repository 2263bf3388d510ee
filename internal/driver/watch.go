package driver

import (
	"context"
	"crypto/sha256"
	"os"
	"time"
)

// Watch mode: `gompcc -watch` as an incremental build loop. The
// implementation is deliberately poll-based — stat every crawled file
// on an interval and compare (mtime, size) signatures — because the
// container has no inotify-style dependency to lean on and polling is
// portable everywhere Go runs. The poll only decides *when* to run a
// pass; *what* gets re-transformed is always the content-hash cache's
// decision, so a spurious wakeup (touch without change) costs one
// crawl and zero transforms.
//
// (mtime, size) alone misses an edit that keeps the size and lands in
// the same mtime tick as the stat that recorded the old signature. So,
// as Git does for "racily clean" index entries, a file whose mtime is
// not older than the previous signature's stat time is also hashed,
// and its content decides. racyWindow widens "not older": file systems
// stamp mtimes in ticks as coarse as 2 s (FAT), and even fine-grained
// ones take them from a clock that lags the wall clock by up to a
// scheduler tick. A file quiet for longer than that costs a stat only.
const racyWindow = 2 * time.Second

// fileSig is one file's change signature: (mtime, size), plus the
// content hash when the file was racily clean (hashed set).
type fileSig struct {
	mtime  int64
	size   int64
	hashed bool
	sum    [sha256.Size]byte
}

// same reports whether two signatures of a file show no change. The
// hashes decide only when both were taken; a file hashed in one and not
// the other has an mtime old enough that a same-tick edit is impossible.
func (a fileSig) same(b fileSig) bool {
	return a.mtime == b.mtime && a.size == b.size && (!a.hashed || !b.hashed || a.sum == b.sum)
}

// treeSig is the signature of the eligible file set, with the wall-clock
// time (UnixNano) taken before its stats.
type treeSig struct {
	at    int64
	files map[string]fileSig
}

// signature stats the current eligible file set, hashing every file
// whose mtime is not older than prev's stat time (this signature's own
// for the first) less racyWindow. Files that vanish between crawl and
// stat simply drop out — the next pass's crawl is authoritative.
func signature(cfg Config, prev treeSig) (treeSig, error) {
	at := time.Now().UnixNano()
	files, err := crawl(cfg)
	if err != nil {
		return treeSig{}, err
	}
	racy := at
	if prev.files != nil {
		racy = prev.at
	}
	racy -= int64(racyWindow)
	sig := treeSig{at: at, files: make(map[string]fileSig, len(files))}
	for _, f := range files {
		info, err := os.Stat(f.path)
		if err != nil {
			continue
		}
		fs := fileSig{mtime: info.ModTime().UnixNano(), size: info.Size()}
		if fs.mtime >= racy {
			if src, err := os.ReadFile(f.path); err == nil {
				fs.hashed, fs.sum = true, sha256.Sum256(src)
			}
		}
		sig.files[f.rel] = fs
	}
	return sig, nil
}

func sigsEqual(a, b treeSig) bool {
	if a.files == nil || len(a.files) != len(b.files) {
		return false
	}
	for k, v := range a.files {
		if w, ok := b.files[k]; !ok || !v.same(w) {
			return false
		}
	}
	return true
}

// Watch runs one pass immediately, then re-runs whenever the polled
// source signature changes, until ctx is done. Every pass's outcome —
// including pass-level errors, which do not stop the loop — is handed
// to fn. The return value is ctx.Err() once the watch ends.
//
// The baseline signature is taken before the first pass, so an edit made
// while that pass or its callback runs triggers another pass. Each poll
// compares against the one before it; racily clean files are compared by
// content, so a same-size edit within one mtime tick triggers a pass too.
func (d *Driver) Watch(ctx context.Context, interval time.Duration, fn func(*Report, error)) error {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	last, _ := signature(d.cfg, treeSig{})
	rep, err := d.Run()
	fn(rep, err)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		cur, err := signature(d.cfg, last)
		if err != nil {
			fn(nil, err)
			continue
		}
		// Advance the baseline even when nothing changed, so files
		// leave the racy set once they have been quiet long enough.
		changed := !sigsEqual(last, cur)
		last = cur
		if !changed {
			continue
		}
		rep, err := d.Run()
		fn(rep, err)
	}
}
