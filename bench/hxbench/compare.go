package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds < 1 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds %d is not a positive whole number", s.RunSeconds)
	}
	return &s, nil
}

// minPairs is the fewest parent/change pairs a verdict other than
// unresolved needs.
const minPairs = 10

// runs are one side's end-to-end metric values: workload → metric →
// results file name → value. A parent and a change run pair up when their
// results files have the same name.
type runs map[string]map[string]map[string]float64

// loadRuns reads every end-to-end results file (-out) in dir.
func loadRuns(dir string) (runs, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := runs{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rf.Trace {
			continue
		}
		for _, r := range rf.Workloads {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string]map[string]float64{}
			}
			for name, m := range r.Metrics {
				if out[r.Workload][name] == nil {
					out[r.Workload][name] = map[string]float64{}
				}
				out[r.Workload][name][filepath.Base(f)] = m.Value
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no end-to-end results files (-out) in %s", dir)
	}
	return out, nil
}

// comparison is one (workload, metric) row of a compare report.
type comparison struct {
	p1, pMed, p3 float64
	c1, cMed, c3 float64
	won, pairs   int
	verdict      string
}

// compareMetric judges a change's runs against the parent's, both keyed
// by results file name; runs of the same name form a pair. With fewer
// than minPairs pairs the verdict is unresolved. Otherwise the change
// improved the metric when it wins at least nine tenths of the pairs and
// its median beats the parent's by more than the parent's own quartile
// spread; it regressed when its median is worse by more than the bound; a
// parent spread wider than the bound leaves the metric unresolved unless
// the two sides' runs do not overlap at all.
func compareMetric(parent, change map[string]float64, m metricSpec) comparison {
	sign := 1.0 // lower is better
	if m.Better == "higher" {
		sign = -1
	}
	var c comparison
	var pv, cv []float64
	for _, f := range sortedKeys(parent) {
		pv = append(pv, parent[f])
		if v, ok := change[f]; ok {
			c.pairs++
			if sign*(v-parent[f]) < 0 {
				c.won++
			}
		}
	}
	for _, f := range sortedKeys(change) {
		cv = append(cv, change[f])
	}
	c.p1, c.pMed, c.p3 = quartiles(pv)
	c.c1, c.cMed, c.c3 = quartiles(cv)
	// separated: every change run reads better than every parent run, or
	// every one reads worse.
	better, worse := true, true
	for _, x := range cv {
		for _, y := range pv {
			better = better && sign*(x-y) < 0
			worse = worse && sign*(x-y) > 0
		}
	}
	spread := c.p3 - c.p1
	switch {
	case c.pairs < minPairs:
		c.verdict = "unresolved"
	case spread > m.Bound*c.pMed && !better && !worse:
		c.verdict = "unresolved"
	case c.won*10 >= c.pairs*9 && sign*(c.pMed-c.cMed) > spread:
		c.verdict = "improved"
	case sign*(c.cMed-c.pMed) > m.Bound*c.pMed:
		c.verdict = "regressed"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// compareMain is `hxbench compare <parent-dir> <change-dir>`: one row per
// workload and end-to-end metric. It exits 1 when anything regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: hxbench compare <parent-dir> <change-dir>")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "hxbench: %v\n", err)
		return 1
	}
	s, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "hxbench: %v\n", err)
		return 1
	}
	parent, err := loadRuns(args[0])
	if err == nil {
		var change runs
		if change, err = loadRuns(args[1]); err == nil {
			return printComparison(stdout, s, parent, change)
		}
	}
	fmt.Fprintf(stderr, "hxbench: %v\n", err)
	return 1
}

func printComparison(w io.Writer, s *spec, parent, change runs) int {
	fmt.Fprintf(w, "%-17s %-12s %-30s %-30s %8s %6s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "bound", "verdict")
	code := 0
	for _, wl := range s.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if p == nil || c == nil {
			continue
		}
		for _, m := range s.EndToEnd {
			cmp := compareMetric(p[m.Name], c[m.Name], m)
			fmt.Fprintf(w, "%-17s %-12s %-30s %-30s %+7.1f%% %6s %5.0f%%  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", cmp.pMed, cmp.p1, cmp.p3, m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", cmp.cMed, cmp.c1, cmp.c3, m.Unit),
				100*(cmp.cMed-cmp.pMed)/cmp.pMed, fmt.Sprintf("%d/%d", cmp.won, cmp.pairs), 100*m.Bound, cmp.verdict)
			if cmp.verdict == "regressed" {
				code = 1
			}
		}
	}
	return code
}
