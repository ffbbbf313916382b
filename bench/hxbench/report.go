package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// op is one timed operation: an hxd request or a CLI process.
type op struct {
	Name   string  `json:"name"`
	Ms     float64 `json:"ms"`
	Cached bool    `json:"cached,omitempty"`
	RSSMB  float64 `json:"rss_mb,omitempty"`
	Failed bool    `json:"failed,omitempty"`
}

// pass is one repetition of a workload's fixed script. PeakRSSMB is the
// largest resident set of the programs during the pass: the largest CLI
// process's peak, or hxd's sampled peak.
type pass struct {
	WallS     float64 `json:"wall_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Ops       []op    `json:"ops"`
}

// result is everything one workload run measured and checked.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Digest is the SHA-256 over the simulated outputs of the first pass;
	// DigestRef is the committed digest it was checked against (empty
	// when none applies: another seed, or a smoke run).
	Digest    string    `json:"result_digest"`
	DigestRef string    `json:"result_digest_ref,omitempty"`
	SetupS    []float64 `json:"setup_s"`
	Passes    []pass    `json:"passes"`
	// RefS are the reference times (ref.go): one before the first pass and
	// one after every pass.
	RefS []float64 `json:"ref_s"`
	// Metrics are the ones BENCHMARK.json names: its end_to_end metrics
	// for an end-to-end run, its per_layer metrics for a traced run.
	Metrics map[string]metric `json:"metrics"`
	// Extra are reported beside them: layer timings of layers only some
	// workloads use, and workload-specific latencies.
	Extra     map[string]metric `json:"extra,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func newResult(name string) *result {
	return &result{Workload: name, Metrics: map[string]metric{}, Extra: map[string]metric{}}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// finish settles the verdict: correct only if every check passed and no
// operation failed.
func (r *result) finish() {
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
}

// opMs returns the latencies of the measured operations selected by keep.
func (r *result) opMs(keep func(op) bool) []float64 {
	var ms []float64
	for _, p := range r.Passes {
		for _, o := range p.Ops {
			if !o.Failed && keep(o) {
				ms = append(ms, o.Ms)
			}
		}
	}
	return ms
}

// setEndToEnd fills the end-to-end metrics every workload reports: the
// median over passes of the pass time as a multiple of the reference time
// around it, the median over passes of the programs' peak resident set,
// and the median set-up time scaled to the nominal reference time
// (ref.go). The median pass, set-up and reference times as measured go in
// the report beside them.
func (r *result) setEndToEnd() {
	walls := make([]float64, len(r.Passes))
	rels := make([]float64, len(r.Passes))
	peaks := make([]float64, len(r.Passes))
	for i, p := range r.Passes {
		walls[i], peaks[i] = p.WallS, p.PeakRSSMB
		rels[i] = p.WallS / ((r.RefS[i] + r.RefS[i+1]) / 2)
	}
	r.Metrics["wall_ref"] = metric{median(rels), "x"}
	r.Metrics["peak_rss_mb"] = metric{median(peaks), "MB"}
	r.Metrics["setup_s"] = metric{median(r.SetupS) * refNominal / r.RefS[0], "s"}
	r.Extra["setup_wall_s"] = metric{median(r.SetupS), "s"}
	r.Extra["wall_s"] = metric{median(walls), "s"}
	r.Extra["ref_s"] = metric{median(r.RefS), "s"}
}

// line is the last line of standard output: the result in the form the
// benchmark contract fixes.
func (r *result) line() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	return string(b)
}

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s\n", r.Workload)
	fmt.Fprintf(w, "setup     %d runs: %s s\n", len(r.SetupS), floats(r.SetupS, "%.3f"))
	fmt.Fprintf(w, "reference %d runs: %s s\n", len(r.RefS), floats(r.RefS, "%.3f"))
	for i, p := range r.Passes {
		fmt.Fprintf(w, "pass %-4d %.3f s, %d ops\n", i+1, p.WallS, len(p.Ops))
	}
	for _, group := range []map[string]metric{r.Metrics, r.Extra} {
		for _, name := range sortedKeys(group) {
			m := group[name]
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	check := "no committed digest for this seed"
	if r.DigestRef != "" {
		check = "matches the committed digest"
		if r.DigestRef != r.Digest {
			check = "DIFFERS from the committed digest " + r.DigestRef
		}
	}
	fmt.Fprintf(w, "result_digest %s (%s)\n", r.Digest, check)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "trace         %s (open in https://ui.perfetto.dev)\n", r.TraceFile)
	}
	fmt.Fprintf(w, "operations    %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAILED CHECK  %s\n", p)
	}
}

func floats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// workersRE matches the worker counts the CLIs print; results are
// worker-count invariant, so digests and comparisons drop them.
var workersRE = regexp.MustCompile(`\b\d+ workers\b`)

func normalize(out string) string { return workersRE.ReplaceAllString(out, "N workers") }

// digest hashes named outputs in the given order.
func digest(names []string, outputs map[string][]byte) string {
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %d\n", n, len(outputs[n]))
		h.Write(outputs[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// machine is the context every results file records.
type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	Workers    int    `json:"workers"`
}

func machineContext(root string, workers int) machine {
	return machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: commit(root), Workers: workers,
	}
}

// commit is the source revision: the one stamped into this binary, else
// what git reports for the repository, else "unknown" (a checkout without
// history).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// resultsFile is what -out writes and compare reads.
type resultsFile struct {
	Machine   machine   `json:"machine"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Smoke     bool      `json:"smoke"`
	Workloads []*result `json:"workloads"`
}

// writeJSON writes v as compact JSON: a results file holds one record per
// hxd request, too many to indent.
func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// scrape parses a Prometheus text exposition (hxd's /metrics or an
// in-process obs.Registry render) into series values keyed by the series
// name with its labels.
func scrape(text string) series {
	s := series{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			s[line[:sp]] = v
		}
	}
	return s
}

type series map[string]float64

// sum adds up every label set of the named series.
func (s series) sum(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
