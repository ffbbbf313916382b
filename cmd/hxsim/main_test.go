package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hammingmesh/internal/cmdtest"
)

// Smoke: hxsim builds, runs the tiny packet-level alltoall, and reports
// sane bandwidth shares, both pristine and degraded.
func TestHxsimSmoke(t *testing.T) {
	bin := cmdtest.Build(t)

	out := cmdtest.Run(t, bin, "-topo", "hx2mesh", "-size", "tiny",
		"-pattern", "alltoall", "-shifts", "2", "-bytes", "32768")
	cmdtest.MustContain(t, out,
		"topology hx2mesh (tiny)",
		"alltoall global bandwidth share (flow-level",
		"alltoall global bandwidth share (packet-level")
	cmdtest.Percents(t, out, 2)

	// Degraded fabric: failed links and a dead board still produce a
	// measurement.
	out = cmdtest.Run(t, bin, "-topo", "hx2mesh", "-size", "tiny",
		"-pattern", "alltoall", "-shifts", "2", "-bytes", "32768",
		"-fail-links", "0.05", "-fail-boards", "1", "-fail-seed", "3")
	cmdtest.MustContain(t, out, "alltoall global bandwidth share")
	cmdtest.Percents(t, out, 1)

	// Bad flags exit non-zero.
	cmdtest.RunExpectError(t, bin, "-topo", "nosuchtopo")
	cmdtest.RunExpectError(t, bin, "-sim-shards", "zero")
	// Out-of-range numbers are refused up front with a one-line error: a
	// non-finite failure fraction is not read as "no failures", zero
	// shifts do not print a share labelled "0 shifts", a negative size
	// does not print NaN%, and zero permutations do not silently run one.
	for _, bad := range [][]string{
		{"-fail-links", "NaN"}, {"-fail-links", "Inf"}, {"-fail-links", "-Inf"},
		{"-fail-links", "1.5"}, {"-fail-links", "-0.1"}, {"-fail-boards", "-2"},
		{"-shifts", "0"}, {"-shifts", "-3"}, {"-bytes", "-5"}, {"-perms", "0"}, {"-trials", "0"},
	} {
		out := cmdtest.RunExpectError(t, bin, append([]string{"-topo", "hx2mesh", "-size", "tiny",
			"-pattern", "allreduce"}, bad...)...)
		cmdtest.MustContain(t, out, "bad "+bad[0])
		if strings.Contains(strings.TrimSpace(out), "\n") {
			t.Fatalf("%v: want a one-line error, got:\n%s", bad, out)
		}
	}
}

// An alltoall, a permutation or a resilience sweep with every board
// failed has no endpoint to simulate: hxsim exits 1 with the survivor
// count as the one line on stderr.
func TestHxsimNoSurvivors(t *testing.T) {
	bin := cmdtest.Build(t)
	for _, pattern := range []string{"alltoall", "permutation", "resilience"} {
		cmd := exec.Command(bin, "-topo", "hx2mesh", "-size", "tiny", "-pattern", pattern, "-fail-boards", "16")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		msg := strings.TrimSuffix(stderr.String(), "\n")
		if cmd.ProcessState.ExitCode() != 1 || strings.Contains(msg, "\n") || !strings.Contains(msg, "need ≥2 endpoints, 0 of 64 survive") {
			t.Fatalf("%s with every board failed: %v, stderr %q, stdout:\n%s\nwant exit 1 and one survivor-count line", pattern, err, stderr.String(), out)
		}
	}
}

// Smoke: the sharded packet engine is wired through -sim-shards and its
// shard-count invariance holds at the CLI level — the packet-level line
// is byte-identical for 1 and 2 shards, and "auto" is accepted.
func TestHxsimSimShards(t *testing.T) {
	bin := cmdtest.Build(t)

	packetLine := func(out string) string {
		for _, ln := range strings.Split(out, "\n") {
			if strings.Contains(ln, "alltoall global bandwidth share (packet-level") {
				return ln
			}
		}
		t.Fatalf("no packet-level line in output:\n%s", out)
		return ""
	}

	args := []string{"-topo", "hx2mesh", "-size", "tiny",
		"-pattern", "alltoall", "-shifts", "2", "-bytes", "32768"}
	want := packetLine(cmdtest.Run(t, bin, append(args, "-sim-shards", "1")...))
	got := packetLine(cmdtest.Run(t, bin, append(args, "-sim-shards", "2")...))
	if got != want {
		t.Errorf("packet-level share differs across shard counts:\n1 shard:  %s\n2 shards: %s", want, got)
	}
	auto := packetLine(cmdtest.Run(t, bin, append(args, "-sim-shards", "auto")...))
	if auto != want {
		t.Errorf("auto shards differs from 1 shard:\nauto:    %s\n1 shard: %s", auto, want)
	}
}

// TestHxsimTrace pins the -trace contract: the flag writes a valid Chrome
// trace-event JSON file (the schema Perfetto loads), with sharded runs
// contributing shard-lane spans, and the measured numbers are untouched
// by the recording.
func TestHxsimTrace(t *testing.T) {
	bin := cmdtest.Build(t)

	args := []string{"-topo", "hx2mesh", "-size", "tiny",
		"-pattern", "alltoall", "-shifts", "2", "-bytes", "32768"}
	want := cmdtest.Run(t, bin, args...)

	path := filepath.Join(t.TempDir(), "trace.json")
	out := cmdtest.Run(t, bin, append(args, "-sim-shards", "2", "-trace", path)...)
	cmdtest.MustContain(t, out, "trace:", "Perfetto")
	// Observer contract at the CLI level: every measurement line is
	// byte-identical with the recorder attached.
	for _, ln := range strings.Split(strings.TrimSpace(want), "\n") {
		if !strings.Contains(out, ln) {
			t.Errorf("measurement line changed under -trace: %q missing from:\n%s", ln, out)
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
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("trace has no events")
	}
	phases := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		ph := ev["ph"].(string)
		phases[ph] = true
		if ph == "X" {
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("span %d missing ts: %v", i, ev)
			}
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("span %d missing dur: %v", i, ev)
			}
		}
	}
	// Metadata names the lanes; spans carry the actual work; the sharded
	// run adds coordinator barriers as instants.
	for _, ph := range []string{"M", "X", "i"} {
		if !phases[ph] {
			t.Errorf("no %q events in trace (got phases %v)", ph, phases)
		}
	}
}

// The crash-resume contract at the process level: a resilience sweep
// killed by a real process death (-journal-crash fires os.Exit mid-write)
// at several distinct journal write boundaries resumes from its journal
// to byte-identical output vs an uninterrupted run.
func TestHxsimJournalCrashResume(t *testing.T) {
	bin := cmdtest.Build(t)

	args := []string{"-topo", "hx2mesh", "-size", "tiny", "-pattern", "resilience",
		"-trials", "2", "-shifts", "2", "-bytes", "32768"}

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

	// One real process death at each of the journal's three write
	// boundaries.
	for _, plan := range []string{"torn-write:2", "before-sync:1", "before-append:3"} {
		t.Run(plan, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "journal")
			crashed := cmdtest.RunExpectError(t, bin,
				append(args, "-journal", dir, "-journal-crash", plan)...)
			if strings.Contains(crashed, "resilience sweep (") {
				t.Fatalf("crashed run still printed the full sweep:\n%s", crashed)
			}
			resumed := cmdtest.Run(t, bin, append(args, "-journal", dir)...)
			cmdtest.MustContain(t, resumed, "journal: resuming")
			if got := sweepTable(resumed); got != want {
				t.Fatalf("resumed output differs from uninterrupted run (crash %s):\nwant:\n%s\ngot:\n%s", plan, want, got)
			}
		})
	}

	// The shard count never changes results, so a sweep journaled at
	// -sim-shards 2 and killed resumes at -sim-shards 1.
	dir := filepath.Join(t.TempDir(), "journal-shards")
	cmdtest.RunExpectError(t, bin, append(args, "-sim-shards", "2", "-journal", dir, "-journal-crash", "torn-write:2")...)
	resumed := cmdtest.Run(t, bin, append(args, "-sim-shards", "1", "-journal", dir)...)
	cmdtest.MustContain(t, resumed, "journal: resuming")
	if got := sweepTable(resumed); got != want {
		t.Fatalf("resumed at 1 shard differs from an uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// A journal bound to different sweep parameters refuses to resume.
	dir = filepath.Join(t.TempDir(), "journal")
	cmdtest.Run(t, bin, append(args, "-journal", dir)...)
	out := cmdtest.RunExpectError(t, bin, "-topo", "hx2mesh", "-size", "tiny",
		"-pattern", "resilience", "-trials", "3", "-shifts", "2", "-bytes", "32768",
		"-journal", dir)
	cmdtest.MustContain(t, out, "different sweep")

	// -journal on a non-sweep pattern is a usage error.
	cmdtest.RunExpectError(t, bin, "-topo", "hx2mesh", "-size", "tiny",
		"-pattern", "alltoall", "-journal", dir)
}
