package main

import (
	"os"
	"path/filepath"
	"testing"
)

// testConfig is a short run with the reduced inputs the traced run's
// cross-probe uses (NPB class S, a shorter region stream, a smaller
// module), so the whole suite stays within a couple of minutes.
func testConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return &config{
		workload: workload, seed: 7, seconds: 0.2, trace: trace,
		root: root, work: t.TempDir(), threads: 2, small: true,
	}
}

func runOrFatal(t *testing.T, cfg *config) *outcome {
	t.Helper()
	out, err := run(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	return out
}

// A short run of each workload measures every named metric, untraced and
// traced, and its outputs pass every check.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, w, trace)
			out := runOrFatal(t, cfg)
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: failed %d of %d (%v)", w, trace, out.failed, out.attempted, out.firstErr)
			}
			table := endToEndMetrics
			if trace {
				table = layerMetrics
			}
			for _, m := range table {
				if m.unit == "" {
					t.Errorf("%s has no unit", m.name)
				}
				if _, ok := out.metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.name)
				}
			}
			if len(out.metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want exactly %d", w, trace, len(out.metrics), len(table))
			}
			if !trace {
				for _, m := range endToEndMetrics {
					if out.metrics[m.name] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, m.name, out.metrics[m.name])
					}
				}
			}
			if err := printResult(cfg, out); err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
		}
	}
}

// With a fixed seed, the counts a later change may cite repeat exactly.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced workloads")
	}
	names := []string{"kmp.fork.count", "kmp.task.spawns", "core.directives", "driver.cached"}
	var first map[string]float64
	for i := 0; i < 2; i++ {
		out := runOrFatal(t, testConfig(t, "regions", true))
		if first == nil {
			first = out.metrics
			continue
		}
		for _, n := range names {
			if out.metrics[n] != first[n] || first[n] <= 0 {
				t.Errorf("%s: %v then %v, want the same positive count", n, first[n], out.metrics[n])
			}
		}
	}
}

// A deliberately corrupted output raises failed_ratio on every workload.
func TestCorruptionFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		cfg := testConfig(t, w, false)
		cfg.corrupt = true
		out := runOrFatal(t, cfg)
		if out.failed == 0 || out.failedRatio() <= 0 {
			t.Errorf("%s: corrupted outputs gave failed_ratio %v", w, out.failedRatio())
		}
		// A kernels round checks six NPB runs and 2×luPerRound LU
		// factors; the corrupted LUDAG factors alone fail luPerRound of
		// them, so a higher share shows NPB verification failing too.
		if luOnly := float64(luPerRound) / float64(6+2*luPerRound); w == "kernels" && out.failedRatio() <= luOnly {
			t.Errorf("kernels: failed_ratio %v, no more than the LU failures alone (%v)", out.failedRatio(), luOnly)
		}
	}
}

// The generated module's directive count is a function of the seed alone.
func TestGeneratedModuleDeterministic(t *testing.T) {
	a, b := generateModule(3, 20), generateModule(3, 20)
	if a.directives() != b.directives() || a.mainSource() != b.mainSource() {
		t.Fatal("same seed, different module")
	}
	if a.directives() == 0 || a.pragmaFiles() == 0 || a.pragmaFiles() == len(a.files) {
		t.Fatalf("module mixes no pragma-free and pragma files: %d of %d", a.pragmaFiles(), len(a.files))
	}
	dir := t.TempDir()
	if err := a.write(dir, "/nonexistent"); err != nil {
		t.Fatal(err)
	}
	if err := a.rewrite(dir, []int{0}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, a.files[0].name))
	if err != nil || string(got) != a.files[0].body || a.files[0].body == b.files[0].body {
		t.Fatalf("rewrite did not change file 0 on disk (err=%v)", err)
	}
}

func TestQuantiles(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	h := newLatencyHist()
	for i := int64(1); i <= 100; i++ {
		h.add(i * 10)
	}
	h.add(histRangeNs + 5)
	if q := h.quantile(0.5); q < 500 || q > 511 {
		t.Errorf("p50 = %v, want about 505", q)
	}
	if q := h.quantile(1); q != histRangeNs+5 {
		t.Errorf("p100 = %v, want the overflow sample", q)
	}
}
