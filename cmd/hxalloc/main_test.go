package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hammingmesh/internal/cmdtest"
)

// Smoke: hxalloc's static allocation study (Fig. 8 mode) runs on a tiny
// grid and prints utilization for every heuristic stack.
func TestHxallocFig8Smoke(t *testing.T) {
	bin := cmdtest.Build(t)

	out := cmdtest.Run(t, bin, "-grid", "4x4", "-mixes", "3")
	cmdtest.MustContain(t, out, "grid 4x4 (16 boards)", "heuristics (Fig. 8)")
	cmdtest.Percents(t, out, 5)

	// The Fig. 7 CDF mode.
	out = cmdtest.Run(t, bin, "-cdf")
	cmdtest.MustContain(t, out, "board CDF (Fig. 7)")

	cmdtest.RunExpectError(t, bin, "-grid", "bogus")
	cmdtest.RunExpectError(t, bin, "-mode", "nosuchmode")

	// -failures fails that many distinct boards, so it must fit the grid.
	for _, bad := range []string{"-1", "17"} {
		out := cmdtest.RunExpectError(t, bin, "-grid", "4x4", "-mixes", "1", "-failures", bad)
		cmdtest.MustContain(t, out, "bad -failures "+bad)
		if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 1 {
			t.Fatalf("-failures %s: want a one-line error, got %d lines:\n%s", bad, lines, out)
		}
	}
	out = cmdtest.Run(t, bin, "-grid", "4x4", "-mixes", "1", "-failures", "16")
	cmdtest.MustContain(t, out, "16 failed boards")
}

// Smoke: hxalloc's trace-driven scheduler mode sweeps the v2 axes
// (reservation x burst x defrag) on a tiny grid and prints one row per
// point.
func TestHxallocSchedSmoke(t *testing.T) {
	bin := cmdtest.Build(t)

	out := cmdtest.Run(t, bin, "-mode", "sched", "-grid", "4x4",
		"-jobs", "30", "-horizon", "20", "-mtbf", "0,40", "-ckpt", "2",
		"-policies", "firstfit", "-trials", "2",
		"-reserve", "0,1", "-burst", "0,0.1", "-burst-shape", "2x1", "-defrag", "0,0.35")
	cmdtest.MustContain(t, out, "scheduler sweep: 4x4 boards", "burst shape 2x1",
		"goodput", "maxWaitL")
	// 1 policy x 1 ckpt x 2 reservation x 2 defrag x 2 burst x 2 mtbf.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "firstfit") {
			rows++
		}
	}
	if rows != 16 {
		t.Fatalf("sweep printed %d point rows, want 16:\n%s", rows, out)
	}
	cmdtest.Percents(t, out, 16)

	cmdtest.RunExpectError(t, bin, "-mode", "sched", "-grid", "4x4", "-policies", "nosuchpolicy")
	cmdtest.RunExpectError(t, bin, "-mode", "sched", "-grid", "4x4", "-burst-shape", "bogus")

	// Non-finite floats, which strconv and the flag package both accept,
	// are refused up front: an infinite horizon never terminates, a NaN one
	// runs no jobs, a NaN MTBF silently means no failures and a NaN defrag
	// threshold defragments at every check. So are out-of-range numbers
	// (runner.SchedSpec.Validate): a 500% communication share, a negative
	// service or repair time, no arrivals, no jobs or no trials would
	// otherwise each print a full table.
	for _, bad := range [][]string{
		{"-horizon", "Inf"}, {"-horizon", "NaN"}, {"-mtbf", "NaN"}, {"-mtbf", "0,+Inf"},
		{"-defrag", "NaN"}, {"-ckpt", "Inf"}, {"-taper", "NaN"}, {"-arrival", "-Inf"},
		{"-commfrac", "5"}, {"-service", "-2"}, {"-arrival", "0"}, {"-jobs", "-5"},
		{"-repair", "-1"}, {"-trials", "0"}, {"-switch-group", "0"}, {"-horizon", "0"},
		{"-taper", "0"}, {"-taper", "1.5"}, {"-elastic-frac", "2"}, {"-priority-frac", "-0.1"},
		{"-defrag-cost", "-1"},
	} {
		out := cmdtest.RunExpectError(t, bin, append([]string{"-mode", "sched", "-grid", "4x4",
			"-jobs", "10", "-trials", "1"}, bad...)...)
		cmdtest.MustContain(t, out, "bad "+bad[0])
		if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 1 {
			t.Fatalf("%v: want a one-line error, got %d lines:\n%s", bad, lines, out)
		}
	}
}

// Smoke: the scheduler-v3 axes (interference x elastic x priority) print
// one row per point with the on/off columns, and -trace-csv drives the
// sweep from an Alibaba/Philly-style CSV file.
func TestHxallocSchedV3AxesAndCSV(t *testing.T) {
	bin := cmdtest.Build(t)

	out := cmdtest.Run(t, bin, "-mode", "sched", "-grid", "4x4",
		"-jobs", "40", "-arrival", "8", "-service", "5", "-commfrac", "0.6",
		"-horizon", "20", "-mtbf", "0", "-ckpt", "2",
		"-policies", "bestfit", "-trials", "2",
		"-interference", "0,1", "-elastic", "0,1", "-priority", "0,1",
		"-switch-group", "2", "-taper", "0.25")
	cmdtest.MustContain(t, out, "scheduler sweep: 4x4 boards",
		"inf", "ela", "pre", "restr", "elast")
	// 1 policy x 1 ckpt x 2 interference x 2 elastic x 2 priority.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "bestfit") {
			rows++
		}
	}
	if rows != 8 {
		t.Fatalf("sweep printed %d point rows, want 8:\n%s", rows, out)
	}

	// A CSV trace with aliased headers drives the same sweep.
	csv := filepath.Join(t.TempDir(), "jobs.csv")
	if err := os.WriteFile(csv, []byte(
		"job_id,submit_time_h,gpus,duration_h,comm_frac,min_boards,priority\n"+
			"0,0.0,16,2.0,0.5,2,1\n"+
			"1,0.5,8,1.5,0.3,1,2\n"+
			"2,1.0,4,3.0,0.4,,\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = cmdtest.Run(t, bin, "-mode", "sched", "-grid", "4x4",
		"-horizon", "20", "-mtbf", "0", "-ckpt", "2",
		"-policies", "bestfit", "-trials", "1", "-trace-csv", csv,
		"-elastic", "1", "-priority", "1")
	cmdtest.MustContain(t, out, "scheduler sweep: 4x4 boards", "bestfit")

	// -trace and -trace-csv are mutually exclusive; a bad CSV is rejected.
	errOut := cmdtest.RunExpectError(t, bin, "-mode", "sched", "-grid", "4x4",
		"-trace", csv, "-trace-csv", csv)
	cmdtest.MustContain(t, errOut, "only one of -trace and -trace-csv")
	cmdtest.RunExpectError(t, bin, "-mode", "sched", "-grid", "4x4",
		"-trace-csv", filepath.Join(t.TempDir(), "missing.csv"))
}

// The crash-resume contract at the process level for the scheduler sweep:
// a run killed by a real process death (-journal-crash fires os.Exit
// mid-write) at several distinct journal write boundaries resumes from its
// journal to byte-identical output vs an uninterrupted run.
func TestHxallocSchedJournalCrashResume(t *testing.T) {
	bin := cmdtest.Build(t)

	args := []string{"-mode", "sched", "-grid", "4x4",
		"-jobs", "30", "-horizon", "20", "-mtbf", "0,40", "-ckpt", "2",
		"-policies", "firstfit", "-trials", "2"}

	// sweepTable strips the journal status lines, which legitimately
	// differ between a fresh and a resumed run.
	sweepTable := func(out string) string {
		var keep []string
		for _, ln := range strings.Split(out, "\n") {
			if strings.HasPrefix(ln, "journal: resuming") {
				continue
			}
			keep = append(keep, ln)
		}
		return strings.Join(keep, "\n")
	}
	want := sweepTable(cmdtest.Run(t, bin, args...))

	// Rotation boundaries need tiny segments and are covered by the
	// in-process tests (internal/runner); at the CLI's default segment
	// size the sweep never rotates.
	for _, plan := range []string{"torn-write:2", "before-sync:1", "before-append:3"} {
		t.Run(plan, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "journal")
			crashed := cmdtest.RunExpectError(t, bin,
				append(args, "-journal", dir, "-journal-crash", plan)...)
			if strings.Contains(crashed, "scheduler sweep:") && strings.Contains(crashed, "goodput") {
				t.Fatalf("crashed run still printed the full sweep:\n%s", crashed)
			}
			resumed := cmdtest.Run(t, bin, append(args, "-journal", dir)...)
			cmdtest.MustContain(t, resumed, "journal: resuming")
			if got := sweepTable(resumed); got != want {
				t.Fatalf("resumed output differs from uninterrupted run (crash %s):\nwant:\n%s\ngot:\n%s", plan, want, got)
			}
		})
	}

	// A journal bound to different sweep parameters refuses to resume.
	dir := filepath.Join(t.TempDir(), "journal")
	cmdtest.Run(t, bin, append(args, "-journal", dir)...)
	out := cmdtest.RunExpectError(t, bin, "-mode", "sched", "-grid", "4x4",
		"-jobs", "30", "-horizon", "20", "-mtbf", "0,40", "-ckpt", "2",
		"-policies", "firstfit", "-trials", "3", "-journal", dir)
	cmdtest.MustContain(t, out, "different sweep")

	// So does one written under a different slowdown model: -switch-group
	// reaches the sweep only through it when interference is off. The
	// original command still resumes.
	dir = filepath.Join(t.TempDir(), "journal")
	group := func(g string) []string {
		return []string{"-mode", "sched", "-grid", "8x8", "-jobs", "60", "-horizon", "30",
			"-mtbf", "0,40", "-ckpt", "2", "-policies", "bestfit", "-trials", "2",
			"-switch-group", g, "-journal", dir}
	}
	cmdtest.Run(t, bin, group("16")...)
	cmdtest.MustContain(t, cmdtest.RunExpectError(t, bin, group("2")...), "different sweep")
	cmdtest.MustContain(t, cmdtest.Run(t, bin, group("16")...), "journal: resuming")

	// -journal outside -mode sched is a usage error.
	cmdtest.RunExpectError(t, bin, "-grid", "4x4", "-mixes", "3", "-journal", dir)
}

// Smoke: -trace-out replays one representative scheduler run into a valid
// Chrome trace-event JSON file without changing the sweep's numbers.
func TestHxallocSchedTraceOut(t *testing.T) {
	bin := cmdtest.Build(t)

	args := []string{"-mode", "sched", "-grid", "4x4",
		"-jobs", "30", "-horizon", "20", "-mtbf", "0,40", "-ckpt", "2",
		"-policies", "firstfit", "-trials", "1"}
	want := cmdtest.Run(t, bin, args...)

	path := filepath.Join(t.TempDir(), "sched.json")
	out := cmdtest.Run(t, bin, append(args, "-trace-out", path)...)
	cmdtest.MustContain(t, out, "trace:", "Perfetto")
	for _, ln := range strings.Split(strings.TrimSpace(want), "\n") {
		if !strings.Contains(out, ln) {
			t.Errorf("sweep line changed under -trace-out: %q missing from:\n%s", ln, out)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev["name"].(string)] = true
	}
	for _, name := range []string{"queued", "run", "board-fail"} {
		if !names[name] {
			t.Errorf("no %q events in scheduler trace (got %v)", name, names)
		}
	}
}
