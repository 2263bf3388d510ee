// Command gompbench is gomp's benchmark: three workloads that stress
// different layers of the runtime and the preprocessor, one command that
// checks every output and prints every metric by name with its unit.
//
//	bash gompbench/run.sh --workload kernels --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the run is untraced and its last line carries the
// end-to-end metrics; with --trace 1 the run records benchmark-side spans
// and the runtime collector, and its last line carries the per-layer
// metrics instead. README.md documents the workloads, every metric and
// the layer -> metric -> end-to-end table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: resolves gomp/omp for generated code
	work     string // scratch directory for generated inputs
	threads  int    // team size and driver jobs: the host's processor count
	// corrupt damages outputs before they are checked, so the tests can
	// show that a wrong answer raises failed_ratio.
	corrupt bool
	// small gives the workload the reduced inputs of the cross-probe, so
	// the tests run every code path quickly.
	small bool
}

// tally counts operations attempted and failed a correctness check.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf(format, args...)
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// workload is one of the benchmark's input sets.
type workload interface {
	// setup builds the inputs and warms the runtime; it is timed as
	// setup_s and repeated, so it must be idempotent.
	setup() error
	// unit runs one unit of work (a kernel round, a pass over the region
	// stream, a build cycle). A nil ledger means untraced.
	unit(l *ledger) tally
	// finish runs the once-per-run checks after the measured loop.
	finish() tally
	// endToEnd derives the end-to-end metrics from the untraced units.
	endToEnd() map[string]float64
	// report lists the workload's named figures for the human report.
	report() []figure
	// layers derives the per-layer metrics of the layers the workload
	// exercises from a ledger it ran into.
	layers(l *ledger) map[string]float64
}

// figure is one line of the human report: a named value with its unit and
// the number of samples behind it.
type figure struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func newWorkload(cfg *config, name string, probe bool) (workload, error) {
	switch name {
	case "kernels":
		return newKernels(cfg, probe), nil
	case "regions":
		return newRegions(cfg, probe), nil
	case "build":
		return newBuild(cfg, probe), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want kernels, regions or build)", name)
}

var workloadNames = []string{"kernels", "regions", "build"}

// setupRepeats is how often set-up runs; setup_s is the median. A
// set-up of kernels or regions takes milliseconds, so the median takes
// many; build's takes about 0.4 s and varies by a quarter from one to the
// next (its priming pass allocates heavily, so where collections fall
// matters), so it takes fewer, but still enough for a steady median.
func setupRepeats(workload string) int {
	if workload == "build" {
		return 21
	}
	return 31
}

// loop paces the measured units: it runs at least one, and starts
// another only while more than half a unit's mean duration remains, so
// a run of long units (a kernels round takes seconds) ends close to its
// time instead of up to a whole unit late.
type loop struct {
	begin   time.Time
	seconds float64
	units   int
}

func newLoop(seconds float64) *loop { return &loop{begin: time.Now(), seconds: seconds} }

func (lp *loop) next() bool {
	elapsed := time.Since(lp.begin).Seconds()
	if lp.units > 0 && lp.seconds-elapsed < elapsed/float64(lp.units)/2 {
		return false
	}
	lp.units++
	return true
}

// outcome is everything one run measured.
type outcome struct {
	tally
	metrics map[string]float64
	figures []figure
	spans   *ledger
}

// run executes one benchmark run.
func run(cfg *config) (*outcome, error) {
	w, err := newWorkload(cfg, cfg.workload, cfg.small)
	if err != nil {
		return nil, err
	}
	var setups, scaled, yardsticks []float64
	for i := 0; i < setupRepeats(cfg.workload); i++ {
		// Each set-up starts on a collected heap, so the previous one's
		// garbage is not collected inside it.
		runtime.GC()
		// The yardstick runs on the processor the set-up runs on, so
		// dividing by it cancels that processor's speed at the time;
		// alternating processors keeps their mix the same in every run.
		unpin := pinTo(i % runtime.NumCPU())
		before := yardstick()
		begin := time.Now()
		err := w.setup()
		secs := time.Since(begin).Seconds()
		after := yardstick()
		unpin()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, secs)
		yardsticks = append(yardsticks, before, after)
		scaled = append(scaled, secs/((before+after)/2)*yardstickRefSeconds)
	}
	out := &outcome{metrics: map[string]float64{}}
	if !cfg.trace {
		for lp := newLoop(cfg.seconds); lp.next(); {
			// Every unit starts on a collected heap returned to the OS, so
			// the peak resident set is the set-up's plus one unit's, not
			// wherever collections and scavenging happen to fall.
			debug.FreeOSMemory()
			out.add(w.unit(nil))
		}
		out.add(w.finish())
		for k, v := range w.endToEnd() {
			out.metrics[k] = v
		}
		out.metrics["setup_s"] = median(scaled)
		out.metrics["peak_rss_mb"] = peakRSSMB()
		out.figures = append(w.report(),
			figure{"setup_s", median(scaled), "s", len(scaled)},
			figure{"setup_wall_s", median(setups), "s", len(setups)},
			figure{"yardstick_s", median(yardsticks), "s", len(yardsticks)},
			figure{"peak_rss_mb", out.metrics["peak_rss_mb"], "MB", 1})
	} else {
		l, err := tracedRun(cfg, w)
		if err != nil {
			return nil, err
		}
		// layerMetrics adds the CG split's check to the ledger's tally.
		out.metrics = l.layerMetrics()
		out.add(l.tally)
		out.figures = w.report()
		out.spans = l
	}
	out.figures = append(out.figures, figure{"failed_ratio", out.failedRatio(), "ratio", out.attempted})
	return out, nil
}

func (o *outcome) failedRatio() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// hostBlock is the host metadata every result carries.
func hostBlock(cfg *config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"threads":    cfg.threads,
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func main() {
	cfg := &config{threads: runtime.NumCPU()}
	flag.StringVar(&cfg.workload, "workload", "kernels", "workload: kernels, regions or build")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and the runtime collector and prints per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root (resolves gomp/omp for the generated module)")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for generated inputs")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if err := mainErr(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gompbench:", err)
		os.Exit(1)
	}
}

func mainErr(cfg *config) error {
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "omp")); err != nil {
		return fmt.Errorf("repository root %s has no omp package: %w", cfg.root, err)
	}
	cfg.work = filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if cfg.work, err = filepath.Abs(cfg.work); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	out, err := run(cfg)
	if err != nil {
		return err
	}
	if out.spans != nil {
		path, err := out.spans.write(filepath.Dir(cfg.work), cfg)
		if err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	}
	printReport(cfg, out)
	return printResult(cfg, out)
}

// printReport writes the human-readable report: host block, the
// workload's named figures with units and sample counts, and one
// machine-readable detail line.
func printReport(cfg *config, out *outcome) {
	host := hostBlock(cfg)
	fmt.Printf("gompbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	keys := make([]string, 0, len(host))
	for k := range host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  host.%-10s %v\n", k, host[k])
	}
	for _, f := range out.figures {
		fmt.Printf("  %-28s %14.6g %-6s n=%d\n", f.Name, f.Value, f.Unit, f.N)
	}
	if out.firstErr != nil {
		fmt.Printf("  first failure: %v\n", out.firstErr)
	}
	detail, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "host": host, "figures": out.figures,
	})
	fmt.Printf("detail: %s\n", detail)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the result line, the last line of standard output.
func printResult(cfg *config, out *outcome) error {
	table := endToEndMetrics
	if cfg.trace {
		table = layerMetrics
	}
	ms := make(map[string]metricValue, len(table))
	for _, m := range table {
		v, ok := out.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		ms[m.name] = metricValue{v, m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   ms,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
