package main

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},   // 10 beyond the median
		{99, 50, true},   // 9.9 beyond p90: not enough
		{100, 90, true},  // 10 beyond p90
		{999, 90, true},  // 9.99 beyond p99
		{1000, 99, true}, // 10 beyond p99
		{2400, 99, true}, // serve-mixed's sample: 24 beyond p99, 2.4 beyond p99.9
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values of Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// loadRepoSpec moves the test to the repository root, where the harness
// runs, and reads BENCHMARK.json.
func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	t.Chdir(filepath.Join("..", ".."))
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNamesAndWorkloads(t *testing.T) {
	s := loadRepoSpec(t)
	var specNames, ours []string
	for _, w := range s.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(specNames, ours) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", specNames, ours)
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
	}
	for name := range unitOf {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
}

func TestSecondsMustMatchSpec(t *testing.T) {
	s := loadRepoSpec(t)
	var stderr strings.Builder
	args := []string{"-workload", "all", "-seconds", fmt.Sprint(s.RunSeconds + 1)}
	if code := mainArgs(args, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "run_seconds") {
		t.Errorf("-seconds %d exited %d (%q); want 2, naming run_seconds", s.RunSeconds+1, code, stderr.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	// byFile names the i-th value run-<first+i>.json, as loadRuns keys them.
	byFile := func(first int, xs []float64) map[string]float64 {
		out := map[string]float64{}
		for i, v := range xs {
			out[fmt.Sprintf("run-%02d.json", first+i)] = v
		}
		return out
	}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.1, 9.9}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	for _, tc := range []struct {
		name           string
		parent, change map[string]float64
		want           string
	}{
		{"same", byFile(1, base), byFile(1, base), "unchanged"},
		{"3% slower", byFile(1, base), byFile(1, scaled(1.03)), "unchanged"},
		{"20% slower", byFile(1, base), byFile(1, scaled(1.2)), "regressed"},
		{"20% faster", byFile(1, base), byFile(1, scaled(0.8)), "improved"},
		{"noisy parent", byFile(1, noisy), byFile(1, scaled(1.05)), "unresolved"},
		{"noisy parent, every run faster", byFile(1, noisy), byFile(1, scaled(0.5)), "improved"},
		{"noisy parent, every run slower", byFile(1, noisy), byFile(1, scaled(2)), "regressed"},
		{"one pair, faster", byFile(1, base[:1]), byFile(1, scaled(0.5)[:1]), "unresolved"},
		{"nine pairs, slower", byFile(1, base[:9]), byFile(1, scaled(2)[:9]), "unresolved"},
		// Ten runs a side, but only files run-06 to run-10 exist on both.
		{"five pairs by file name", byFile(1, base), byFile(6, scaled(0.5)), "unresolved"},
	} {
		c := compareMetric(tc.parent, tc.change, m)
		if c.verdict != tc.want {
			t.Errorf("%s: verdict %q (%d of %d pairs won), want %q", tc.name, c.verdict, c.won, c.pairs, tc.want)
		}
	}
}

func TestComparePairsByFile(t *testing.T) {
	m := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	// The change is faster on every file both sides have, but run-02 is
	// missing on its side: pairing by position would match its run-03
	// against the parent's run-02.
	parent := map[string]float64{"run-01.json": 10, "run-02.json": 5, "run-03.json": 20}
	change := map[string]float64{"run-01.json": 9, "run-03.json": 19}
	if c := compareMetric(parent, change, m); c.pairs != 2 || c.won != 2 {
		t.Errorf("paired %d runs, change won %d; want 2 and 2", c.pairs, c.won)
	}
}

// TestSmoke runs every workload at toy size end to end and traced, and
// requires the run to report exactly the metrics BENCHMARK.json names and
// to fail when a cache hit's body is corrupted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	s := loadRepoSpec(t)
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, traces := t.TempDir(), t.TempDir()
	var all []string
	for _, w := range workloads {
		all = append(all, w.name)
	}
	start := time.Now()
	for _, trace := range []bool{false, true} {
		o := &options{root: root, binDir: bin, seed: 1, seconds: time.Millisecond, trace: trace, smoke: true,
			workers: 2, multi: true, traceOut: filepath.Join(traces, "trace.json")}
		results, err := runWorkloads(o, all, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		want := names(s.EndToEnd)
		if trace {
			want = names(s.PerLayer)
		}
		for _, r := range results {
			if !r.Correct {
				t.Errorf("%s (trace %v) failed: %s", r.Workload, trace, strings.Join(r.Problems, "; "))
			}
			if got := sortedKeys(r.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s (trace %v) reports %v, BENCHMARK.json names %v", r.Workload, trace, got, want)
			}
			for _, name := range append(sortedKeys(r.Metrics), sortedKeys(r.Extra)...) {
				if !metricName.MatchString(name) {
					t.Errorf("%s reports metric %q, which does not match %s", r.Workload, name, metricName)
				}
			}
			if r.Attempted < 1 || r.Digest == "" {
				t.Errorf("%s (trace %v): attempted %d, digest %q", r.Workload, trace, r.Attempted, r.Digest)
			}
		}
	}
	t.Logf("both smoke rounds of all four workloads took %v", time.Since(start))

	o := &options{root: root, binDir: bin, seed: 1, seconds: time.Millisecond, smoke: true, workers: 2, corruptHit: true}
	results, err := runWorkloads(o, []string{"serve-mixed"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.Correct || !strings.Contains(strings.Join(r.Problems, "\n"), "differs from its miss body") {
		t.Errorf("a corrupted hit body left the run correct=%v, problems %q", r.Correct, r.Problems)
	}
}
