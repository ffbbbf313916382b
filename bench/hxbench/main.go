// Command hxbench is the repository's benchmark. It runs four workloads
// that drive the real programs end to end (cmd/hxd, cmd/hxsim and
// cmd/hxalloc, built during set-up), checks that their outputs are
// correct, and prints every metric by name and unit. A traced run
// (-trace 1) replays the same work in process instead, with a span around
// every call into a layer's public functions, reports the per-layer
// metrics and writes the spans as a Perfetto trace, one lane per module.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload <name|all> -seed N [-trace 0|1|file.json] [-out results.json]
//	bash bench/run.sh compare <parent-dir> <change-dir>
//
// A run measures for BENCHMARK.json's run_seconds. The last line of
// standard output is the run's JSON result; the exit code is non-zero when
// any correctness check fails. See bench/README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options is one invocation's settings.
type options struct {
	root     string // repository root
	binDir   string // where the programs are built
	work     string // scratch directory of this invocation
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string // Perfetto file (traced runs)
	smoke    bool
	workers  int // hxd -workers, CLI -parallel and serve-mixed clients
	multi    bool
	// corruptHit flips a byte of the first hit body serve-mixed receives,
	// so tests can see the byte-equality check fail the run.
	corruptHit bool
}

// workloads run in this order for -workload all; BENCHMARK.json says why
// each exists.
var workloads = []struct {
	name string
	run  func(*options) *result
}{
	{"serve-mixed", runServe},
	{"paper-small", func(o *options) *result { return runCLI(o, paperSmall) }},
	{"table2-small", func(o *options) *result { return runCLI(o, table2Small) }},
	{"sched-contention", func(o *options) *result { return runCLI(o, schedContention) }},
}

//go:embed digests.json
var digestsJSON []byte

// committedDigests are the result digests of every workload at seed 1; a
// change that only makes the programs faster leaves them unchanged.
var committedDigests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(err)
	}
	return m
}()

func main() { os.Exit(mainArgs(os.Args[1:], os.Stdout, os.Stderr)) }

func mainArgs(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("hxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	// The run length is BENCHMARK.json's run_seconds. The flag exists so the
	// standard benchmark command line (--workload W --seed N --seconds S
	// --trace T) parses; any other value is refused.
	seconds := fs.Int("seconds", 0, "must equal BENCHMARK.json's run_seconds when given")
	trace := fs.String("trace", "0", "0: end-to-end run; 1: traced in-process replay, Perfetto file under .bench_build/; a file name: the same, writing the Perfetto file there")
	out := fs.String("out", "", "also write the full results (machine context, every pass) to this JSON file")
	smoke := fs.Bool("smoke", false, "toy sizes and a single pass: exercises the harness in seconds, measures nothing")
	if err := fs.Parse(args); err != nil {
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
	if *seconds != 0 && *seconds != s.RunSeconds {
		fmt.Fprintf(stderr, "hxbench: -seconds %d: a run measures for BENCHMARK.json's run_seconds, %d\n", *seconds, s.RunSeconds)
		return 2
	}
	o := &options{
		root: root, binDir: filepath.Join(root, ".bench_build", "bin"), seed: *seed,
		seconds: time.Duration(s.RunSeconds) * time.Second, trace: *trace != "0", smoke: *smoke,
		workers: min(2, runtime.NumCPU()), multi: *workload == "all",
	}
	if *trace != "0" && *trace != "1" {
		o.traceOut = *trace
	}
	if o.smoke {
		o.seconds = 0 // a single pass
	}
	var run []string
	for _, n := range names {
		if *workload == n || *workload == "all" {
			run = append(run, n)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(stderr, "hxbench: unknown -workload %q (choose from %s, or all)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	results, err := runWorkloads(o, run, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "hxbench: %v\n", err)
		return 1
	}
	if *out != "" {
		f := resultsFile{Machine: machineContext(root, o.workers), Seed: o.seed, Seconds: o.seconds.Seconds(),
			Trace: o.trace, Smoke: o.smoke, Workloads: results}
		if err := writeJSON(*out, f); err != nil {
			fmt.Fprintf(stderr, "hxbench: %v\n", err)
			return 1
		}
	}
	for _, r := range results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runWorkloads runs the named workloads, printing each one's report
// followed by its JSON result line.
func runWorkloads(o *options, names []string, stdout io.Writer) ([]*result, error) {
	base := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work
	m := machineContext(o.root, o.workers)
	var results []*result
	for _, w := range workloads {
		for _, n := range names {
			if n != w.name {
				continue
			}
			fmt.Fprintf(stdout, "hxbench %s: seed %d, %gs, %d workers, %d CPUs, GOMAXPROCS %d, %s, commit %s\n",
				n, o.seed, o.seconds.Seconds(), o.workers, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Commit)
			r := w.run(o)
			r.print(stdout)
			fmt.Fprintln(stdout, r.line())
			results = append(results, r)
		}
	}
	return results, nil
}

// findRoot returns the repository root, which must be the working
// directory (bench/run.sh changes to it).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if b, err := os.ReadFile(filepath.Join(wd, "go.mod")); err != nil || !strings.HasPrefix(string(b), "module hammingmesh\n") {
		return "", fmt.Errorf("%s is not the root of the hammingmesh repository (no go.mod of module hammingmesh)", wd)
	}
	return wd, nil
}

// setups is how many times set-up runs: five for the median an
// end-to-end run reports, once for traced and smoke runs.
func (o *options) setups() int {
	if o.trace || o.smoke {
		return 1
	}
	return 5
}

// mkdir creates a fresh scratch directory.
func (o *options) mkdir(prefix string) (string, error) { return os.MkdirTemp(o.work, prefix+"-") }

func (o *options) bin(name string) string { return filepath.Join(o.binDir, name) }

// traceFile is where a traced run writes its Perfetto file.
func (o *options) traceFile(workload string) string {
	if o.traceOut == "" {
		return filepath.Join(o.root, ".bench_build", "trace-"+workload+".json")
	}
	if !o.multi {
		return o.traceOut
	}
	ext := filepath.Ext(o.traceOut)
	return strings.TrimSuffix(o.traceOut, ext) + "-" + workload + ext
}

// checkDigest records a run's result digest and, for seed 1 at full size,
// requires it to equal the committed one.
func (o *options) checkDigest(r *result, d string) {
	r.Digest = d
	if o.seed != 1 || o.smoke {
		return
	}
	r.DigestRef = committedDigests[r.Workload]
	if r.DigestRef != "" && r.DigestRef != d {
		r.fail("result digest %s differs from the committed %s: the simulated results changed", d, r.DigestRef)
	}
}
