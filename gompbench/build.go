package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"gomp/internal/core"
	"gomp/internal/driver"
)

// build is the module build driver over a seeded generated module (see
// gen.go) with Jobs = nproc. One unit is a cycle: a cold pass with the
// cache off, then a rewrite of a fixed-size seeded subset of the files,
// then a warm pass that depends on the content-hash cache. It is the only
// workload that exercises the preprocessor passes and the cache; the
// runtime appears only as the driver's omp.ForEach fan-out.
type build struct {
	cfg    *config
	nfiles int
	mod    *genModule
	rng    *rand.Rand

	dir, src, out, cache string
	setups               int

	// Untraced New+Run wall times and their references, one entry per
	// cycle whose passes all succeeded, so index i is one cycle's pair.
	coldNs, warmNs       []float64
	refColdNs, refWarmNs []float64
	warmReports          []*driver.Report
	warmOverhead         []float64 // traced warm passes: Run minus TransformNs per job
	coreBytesIn          int
	coreBytesOut         int
}

const (
	buildFiles      = 48
	probeBuildFiles = 12
)

func newBuild(cfg *config, probe bool) *build {
	n := buildFiles
	if probe {
		n = probeBuildFiles
	}
	return &build{cfg: cfg, nfiles: n}
}

// rewriteCount is the fixed number of files each cycle edits, so every
// warm pass has the same number of cache hits.
func (b *build) rewriteCount() int { return b.nfiles / 6 }

// setup writes the generated module to a fresh directory and primes the
// cache with one cached pass. The priming pass runs with one job: a
// serial pass's wall time does not depend on how the host schedules the
// driver's workers, so setup_s stays steady where a parallel pass's
// would follow other tenants' load. Earlier set-ups' directories stay
// until the run's work directory is removed, so no set-up pays for
// another's deletion.
func (b *build) setup() error {
	b.setups++
	b.dir = filepath.Join(b.cfg.work, fmt.Sprintf("build-%d-%d", b.nfiles, b.setups))
	b.src, b.out, b.cache = filepath.Join(b.dir, "src"), filepath.Join(b.dir, "out"), filepath.Join(b.dir, "cache")
	b.mod = generateModule(b.cfg.seed, b.nfiles)
	b.rng = rand.New(rand.NewSource(b.cfg.seed))
	if err := b.mod.write(b.src, b.cfg.root); err != nil {
		return err
	}
	prime := b.driverConfig(b.cache)
	prime.Jobs = 1
	d, err := driver.New(prime)
	if err != nil {
		return err
	}
	rep, err := d.Run()
	if err != nil {
		return err
	}
	return rep.Err()
}

func (b *build) driverConfig(cache string) driver.Config {
	return driver.Config{Module: b.src, OutDir: b.out, CacheDir: cache, Jobs: b.cfg.threads}
}

// pass runs driver.New and Run and returns the report (empty, never nil,
// when either fails), the wall time of both and that of Run alone.
func (b *build) pass(l *ledger, u int32, cache string, sp spanName) (rep *driver.Report, ns, runNs int64, err error) {
	begin := time.Now()
	s := l.open(spDriverNew, 0, -1, u)
	d, err := driver.New(b.driverConfig(cache))
	l.close(s)
	if err != nil {
		return &driver.Report{}, 0, 0, err
	}
	s = l.open(sp, 0, -1, u)
	runBegin := time.Now()
	rep, err = d.Run()
	runNs = int64(time.Since(runBegin))
	l.close(s)
	if rep == nil {
		rep = &driver.Report{}
	}
	return rep, int64(time.Since(begin)), runNs, err
}

func (b *build) unit(l *ledger) tally {
	var t tally
	u := int32(-1)
	if l != nil {
		u = l.newUnit()
	}
	refFirst := b.rng.Intn(2) == 1
	var refCold, refWarm float64
	if refFirst {
		refCold = b.reference(l, u, &t, spRefCold, nil)
	}
	rep, coldNs, _, err := b.pass(l, u, driver.CacheOff, spDriverCold)
	if err == nil {
		err = rep.Err()
	}
	coldOK := err == nil && rep.Transformed == b.mod.pragmaFiles()
	t.check(coldOK, "cold pass: transformed %d of %d pragma files (%v)", rep.Transformed, b.mod.pragmaFiles(), err)
	b.checkOutputs(&t, allFiles(b.mod))
	if !refFirst {
		refCold = b.reference(l, u, &t, spRefCold, nil)
	}

	edited := b.mod.pickEdits(b.rng, b.rewriteCount())
	// The warm pass starts, like every unit, on a heap returned to the OS.
	debug.FreeOSMemory()
	if err := b.mod.rewrite(b.src, edited); err != nil {
		t.check(false, "rewrite: %v", err)
		return t
	}
	if refFirst {
		refWarm = b.reference(l, u, &t, spRefWarm, edited)
	}
	rep2, warmNs, warmRunNs, err := b.pass(l, u, b.cache, spDriverWarm)
	if !refFirst {
		refWarm = b.reference(l, u, &t, spRefWarm, edited)
	}
	wantCached := b.nfiles + 1 - len(edited) // + main.go
	if err == nil {
		err = rep2.Err()
	}
	warmOK := err == nil && rep2.Cached == wantCached
	t.check(warmOK, "warm pass: %d files cached, want %d (%v)", rep2.Cached, wantCached, err)
	b.checkOutputs(&t, edited)
	if err == nil {
		b.warmReports = append(b.warmReports, rep2)
		if l != nil {
			jobs := int64(b.cfg.threads)
			b.warmOverhead = append(b.warmOverhead, float64(warmRunNs-rep2.TransformNs/jobs))
		}
	}
	if l == nil && coldOK && warmOK && refCold > 0 && refWarm > 0 {
		b.coldNs = append(b.coldNs, float64(coldNs))
		b.warmNs = append(b.warmNs, float64(warmNs))
		b.refColdNs = append(b.refColdNs, refCold)
		b.refWarmNs = append(b.refWarmNs, refWarm)
	}
	return t
}

// refColdRepeats and refWarmRepeats are how often a reference pass
// formats each file (it writes the result once, as the driver does). One
// gofmt pass over the module takes about a twentieth of a cold driver
// pass, and one over the edited files about a thirtieth of a warm pass;
// repeating them brings each reference to a comparable length, so that
// its own noise (a collection landing inside it, a scheduling hiccup)
// does not dominate the ratio.
const (
	refColdRepeats = 8
	refWarmRepeats = 32
)

// reference runs one reference pass over the module on cfg.threads
// goroutines, without the preprocessor. The cold pass's reference reads,
// parses and gofmt-prints every file refColdRepeats times and writes it:
// the standard library's floor for a source-to-source pass. The warm
// pass's reference reads and SHA-256-hashes every file and stats its
// output, then does the cold reference's work for the edited files only,
// refWarmRepeats times: the floor of an incremental rebuild behind a
// content-hash cache.
func (b *build) reference(l *ledger, u int32, t *tally, sp spanName, edited []int) (ns float64) {
	type job struct {
		name          string
		format, write bool
	}
	// The files in the order the driver crawls them (lexical), split into
	// the contiguous blocks the driver's omp.ForEach hands its workers
	// under the runtime's default static schedule: the reference meets the
	// same load balance as the pass it is set against, whatever speed the
	// host gives each processor.
	names := []string{"main.go"}
	for _, f := range b.mod.files {
		names = append(names, f.name)
	}
	sort.Strings(names)
	isEdited := map[string]bool{}
	for _, i := range edited {
		isEdited[b.mod.files[i].name] = true
	}
	perWorker := make([][]job, b.cfg.threads)
	for w := range perWorker {
		lo, hi := staticBlock(w, b.cfg.threads, len(names))
		for _, name := range names[lo:hi] {
			repeats := refColdRepeats
			if sp == spRefWarm {
				perWorker[w] = append(perWorker[w], job{name, false, false})
				repeats = 0
				if isEdited[name] {
					repeats = refWarmRepeats
				}
			}
			for r := 0; r < repeats; r++ {
				perWorker[w] = append(perWorker[w], job{name, true, r == 0})
			}
		}
	}
	refOut := filepath.Join(b.dir, "ref")
	if err := os.MkdirAll(refOut, 0o755); err != nil {
		t.check(false, "reference: %v", err)
		return 0
	}
	s := l.open(sp, 0, -1, u)
	begin := time.Now()
	errs := make([]error, b.cfg.threads)
	var wg sync.WaitGroup
	for w, jobs := range perWorker {
		wg.Add(1)
		go func(w int, jobs []job) {
			defer wg.Done()
			for _, j := range jobs {
				if j.format {
					out := ""
					if j.write {
						out = filepath.Join(refOut, j.name)
					}
					errs[w] = refFormat(filepath.Join(b.src, j.name), out)
				} else {
					errs[w] = refHash(filepath.Join(b.src, j.name), filepath.Join(b.out, j.name))
				}
				if errs[w] != nil {
					return
				}
			}
		}(w, jobs)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	l.close(s)
	err := errors.Join(errs...)
	t.check(err == nil, "reference pass: %v", err)
	if err != nil {
		return 0
	}
	return float64(elapsed)
}

// staticBlock is the contiguous block [lo, hi) of n items that worker w
// of nth gets under the runtime's default static schedule: the first
// n%nth workers take one item more.
func staticBlock(w, nth, n int) (lo, hi int) {
	q, r := n/nth, n%nth
	if w < r {
		lo = w * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (w-r)*q
	return lo, lo + q
}

func refFormat(src, out string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, b, parser.ParseComments)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, f); err != nil || out == "" {
		return err
	}
	return os.WriteFile(out, buf.Bytes(), 0o644)
}

func refHash(src, out string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	sha256.Sum256(b)
	_, err = os.Stat(out)
	return err
}

func allFiles(m *genModule) []int {
	idx := make([]int, len(m.files))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// checkOutputs requires every listed file's output to parse and to keep
// no pragma sentinel.
func (b *build) checkOutputs(t *tally, idx []int) {
	for n, i := range idx {
		f := b.mod.files[i]
		path := filepath.Join(b.out, f.name)
		src, err := os.ReadFile(path)
		if b.cfg.corrupt && n == 0 {
			src = append(src, "\n//omp barrier\n"...)
		}
		if err == nil {
			_, err = parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		}
		t.check(err == nil && !core.ContainsPragma(src), "output %s: sentinel left or parse error (%v)", f.name, err)
	}
}

// finish builds and runs the generated module twice, from the transformed
// outputs and from the untransformed sources: the pragmas are comments,
// so the untransformed program is a serial reference that does not
// depend on the preprocessor. Their outputs must match.
func (b *build) finish() tally {
	var t tally
	if err := os.WriteFile(filepath.Join(b.out, "go.mod"), []byte(goMod(b.cfg.root)), 0o644); err != nil {
		t.check(false, "writing go.mod: %v", err)
		return t
	}
	ref, errRef := goRun(b.src, filepath.Join(b.dir, "serial.bin"))
	got, errGot := goRun(b.out, filepath.Join(b.dir, "omp.bin"))
	if b.cfg.corrupt {
		got = append(got, '!')
	}
	t.check(errRef == nil && errGot == nil && len(ref) > 0 && bytes.Equal(ref, got),
		"generated module: transformed output differs from serial reference (serial err=%v, omp err=%v)", errRef, errGot)
	return t
}

// goRun builds the package in dir with the go command and runs it,
// returning its standard output.
func goRun(dir, bin string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build in %s: %v\n%s", dir, err, out)
	}
	cmd = exec.CommandContext(ctx, bin)
	cmd.Dir = dir
	return cmd.Output()
}

// traceExtras times each preprocessor pass from outside: Tokenize,
// ParseDirective and Validate per directive, Transform per file.
func (b *build) traceExtras(l *ledger) {
	u := l.newUnit()
	for _, f := range b.mod.files {
		if f.dirs == 0 {
			continue
		}
		src, err := os.ReadFile(filepath.Join(b.src, f.name))
		if err != nil {
			l.check(false, "reading %s: %v", f.name, err)
			continue
		}
		for _, line := range strings.Split(string(src), "\n") {
			text, _, ok := core.Sentinel(strings.TrimSpace(line))
			if !ok {
				continue
			}
			s := l.open(spTokenize, 0, -1, u)
			_, err := core.Tokenize(text)
			l.close(s)
			s = l.open(spParse, 0, -1, u)
			d, perr := core.ParseDirective(text)
			l.close(s)
			if perr == nil {
				s = l.open(spValidate, 0, -1, u)
				perr = core.Validate(d)
				l.close(s)
			}
			l.check(err == nil && perr == nil, "%s: directive %q: %v %v", f.name, text, err, perr)
		}
		s := l.open(spTransform, 0, -1, u)
		tr, err := core.Transform(src, core.Options{Filename: f.name})
		l.close(s)
		l.check(err == nil && tr.Changed, "%s: transform: %v", f.name, err)
		b.coreBytesIn += len(src)
		b.coreBytesOut += len(tr.Output)
	}
}

func (b *build) endToEnd() map[string]float64 {
	return map[string]float64{
		"primary_vs_ref":   pairedRatio(b.coldNs, b.refColdNs),
		"secondary_vs_ref": pairedRatio(b.warmNs, b.refWarmNs),
	}
}

func (b *build) report() []figure {
	return []figure{
		{"build_cold_s", median(b.coldNs) / 1e9, "s", len(b.coldNs)},
		{"build_warm_s", median(b.warmNs) / 1e9, "s", len(b.warmNs)},
		{"ref_cold_s", median(b.refColdNs) / 1e9, "s", len(b.refColdNs)},
		{"ref_warm_s", median(b.refWarmNs) / 1e9, "s", len(b.refWarmNs)},
		{"build.files", float64(b.nfiles + 1), "count", 1},
		{"build.pragma_files", float64(b.mod.pragmaFiles()), "count", 1},
	}
}

func (b *build) layers(l *ledger) map[string]float64 {
	var transformed, cached, hit []float64
	pragma := float64(b.mod.pragmaFiles())
	for _, r := range b.warmReports {
		transformed = append(transformed, float64(r.Transformed))
		cached = append(cached, float64(r.Cached))
		hit = append(hit, (pragma-float64(r.Transformed))/pragma)
	}
	growth := 0.0
	if b.coreBytesIn > 0 {
		growth = float64(b.coreBytesOut) / float64(b.coreBytesIn)
	}
	return map[string]float64{
		"core.tokenize_ns":       median(l.durations(spTokenize)),
		"core.parse_ns":          median(l.durations(spParse)),
		"core.validate_ns":       median(l.durations(spValidate)),
		"core.transform_ns":      median(l.durations(spTransform)),
		"core.directives":        float64(b.mod.directives()),
		"core.growth_ratio":      growth,
		"driver.cold.run_ns":     median(l.durations(spDriverCold)),
		"driver.warm.run_ns":     median(l.durations(spDriverWarm)),
		"driver.transformed":     median(transformed),
		"driver.cached":          median(cached),
		"driver.cache_hit_ratio": median(hit),
		"driver.overhead_ns":     median(b.warmOverhead),
	}
}
