package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"hammingmesh/internal/journal"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/sched"
)

// openCk opens a test checkpoint, failing the test on error.
func openCk(t *testing.T, dir, key string, o journal.Options) *Checkpoint {
	t.Helper()
	ck, err := OpenCheckpoint(dir, key, o)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// RunJournaled fundamentals: results round-trip through the checkpoint,
// completed jobs are not re-executed on resume, and resumed results are
// byte-identical to the fresh run.
func TestRunJournaledSkipsCompleted(t *testing.T) {
	type val struct{ X float64 }
	dir := t.TempDir()
	p := NewSeeded(4, 1)
	var executed atomic.Int64
	mkJobs := func() []Job {
		jobs := make([]Job, 6)
		for i := range jobs {
			jobs[i] = Job{Name: fmt.Sprintf("point-%d", i), Run: func(c *Ctx) (any, error) {
				executed.Add(1)
				return &val{X: float64(i) + 0.125}, nil
			}}
		}
		return jobs
	}
	o := journal.Options{NoSync: true}

	ck := openCk(t, dir, "sweep-A", o)
	first, err := RunJournaled[val](p, context.Background(), mkJobs(), ck)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if got := executed.Load(); got != 6 {
		t.Fatalf("fresh run executed %d jobs, want 6", got)
	}

	// Resume: everything is journaled, nothing re-executes, values match.
	ck2 := openCk(t, dir, "sweep-A", o)
	if ck2.Len() != 6 {
		t.Fatalf("resume loaded %d points, want 6", ck2.Len())
	}
	second, err := RunJournaled[val](p, context.Background(), mkJobs(), ck2)
	if err != nil {
		t.Fatal(err)
	}
	ck2.Close()
	if got := executed.Load(); got != 6 {
		t.Fatalf("resume re-executed jobs: %d total executions, want 6", got)
	}
	for i := range first {
		a := first[i].Value.(*val)
		b := second[i].Value.(*val)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("result %d changed across resume: %+v vs %+v", i, a, b)
		}
	}

	// A checkpoint refuses a different sweep's fingerprint.
	if _, err := OpenCheckpoint(dir, "sweep-B", o); err == nil {
		t.Fatal("OpenCheckpoint accepted a mismatched sweep fingerprint")
	}
}

// crashPlans are the injected crash points the sweep invariance tests kill
// at, one per distinct write boundary.
func crashPlans() []journal.CrashPlan {
	return []journal.CrashPlan{
		{Point: journal.CrashTornWrite, AfterAppends: 1},
		{Point: journal.CrashBeforeSync, AfterAppends: 2},
		{Point: journal.CrashBeforeAppend, AfterAppends: 3},
	}
}

// The tentpole contract for scheduler sweeps: a sweep killed by an
// injected crash at any write boundary and then resumed from its journal
// produces byte-identical output to an uninterrupted run.
func TestSchedSweepCrashResumeBitIdentical(t *testing.T) {
	cfg := schedSweepTestConfig()
	cfg.Trace.Jobs = 40
	cfg.MTBFs = []float64{0, 30}
	cfg.Trials = 2
	cfg.Policies = []sched.Policy{sched.FirstFit}
	// The scheduler-v3 axes ride the same journal: resumed sweeps with
	// contention pricing, elastic jobs and preemption on must stay
	// byte-identical to uninterrupted ones.
	cfg.Trace.ElasticFrac = 0.4
	cfg.Trace.PriorityFrac = 0.3
	cfg.Base.Slowdown = &sched.CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2}
	cfg.Base.Interference = &sched.Interference{GroupBoards: 2, Taper: 0.25}
	cfg.Interferences = []bool{false, true}
	cfg.Elastics = []bool{true}
	cfg.Preempts = []bool{true}

	pool := NewSeeded(4, 1)
	c, err := pool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	want, err := pool.SchedSweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint(c)

	replayed := 0
	for _, plan := range crashPlans() {
		plan := plan
		t.Run(string(plan.Point), func(t *testing.T) {
			dir := t.TempDir()
			crashed := journal.Options{NoSync: true, Crash: &plan}
			ck, err := OpenCheckpoint(dir, fp, crashed)
			if err != nil {
				// The crash can fire on the meta append itself
				// (before-append with AfterAppends covered by 0 appends is
				// not in the plans, so this open must succeed).
				t.Fatal(err)
			}
			_, err = pool.SchedSweepJournaled(context.Background(), c, cfg, ck)
			if !errors.Is(err, journal.ErrCrashInjected) {
				t.Fatalf("crashed sweep returned %v, want ErrCrashInjected", err)
			}
			ck.Close()

			// Resume from whatever survived on disk.
			ck2 := openCk(t, dir, fp, journal.Options{NoSync: true})
			replayed += ck2.Len()
			got, err := pool.SchedSweepJournaled(context.Background(), c, cfg, ck2)
			if err != nil {
				t.Fatal(err)
			}
			ck2.Close()
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("resumed sweep differs from uninterrupted run at crash point %s:\nwant %s\ngot  %s",
					plan.Point, wantJSON, gotJSON)
			}
		})
	}
	if replayed == 0 {
		t.Fatal("no crash plan left any journaled points to resume from — the harness is not exercising replay")
	}
}

// The same contract for resilience sweeps, across the same crash points.
func TestResilienceSweepCrashResumeBitIdentical(t *testing.T) {
	pool := NewSeeded(4, 1)
	c, err := pool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	netCfg := netsim.DefaultConfig()
	fracs := []float64{0, 0.10}
	const trials, shifts, seed, boards = 2, 2, 42, 0
	bytesPer := int64(32 << 10)

	want, err := pool.ResilienceSweep(c, netCfg, bytesPer, fracs, trials, shifts, seed, boards)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	fp := ResilienceFingerprint(c, netCfg, bytesPer, fracs, trials, shifts, seed, boards)

	replayed := 0
	for _, plan := range crashPlans() {
		plan := plan
		t.Run(string(plan.Point), func(t *testing.T) {
			dir := t.TempDir()
			ck, err := OpenCheckpoint(dir, fp, journal.Options{NoSync: true, Crash: &plan})
			if err != nil {
				t.Fatal(err)
			}
			_, err = pool.ResilienceSweepJournaled(context.Background(), c, netCfg, bytesPer, fracs, trials, shifts, seed, boards, ck)
			if !errors.Is(err, journal.ErrCrashInjected) {
				t.Fatalf("crashed sweep returned %v, want ErrCrashInjected", err)
			}
			ck.Close()

			ck2 := openCk(t, dir, fp, journal.Options{NoSync: true})
			replayed += ck2.Len()
			got, err := pool.ResilienceSweepJournaled(context.Background(), c, netCfg, bytesPer, fracs, trials, shifts, seed, boards, ck2)
			if err != nil {
				t.Fatal(err)
			}
			ck2.Close()
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("resumed sweep differs from uninterrupted run at crash point %s:\nwant %s\ngot  %s",
					plan.Point, wantJSON, gotJSON)
			}
		})
	}
	if replayed == 0 {
		t.Fatal("no crash plan left any journaled points to resume from — the harness is not exercising replay")
	}
}

// Cancelling RunCtx stops dispatch promptly: jobs not yet handed to a
// worker carry ctx.Err() instead of running the rest of the grid.
func TestRunCtxCancel(t *testing.T) {
	p := NewSeeded(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	jobs := make([]Job, 50)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Run: func(c *Ctx) (any, error) {
			ran.Add(1)
			if i == 0 {
				cancel()
			}
			return i, nil
		}}
	}
	results := p.RunCtx(ctx, jobs)
	cancel()
	if n := ran.Load(); n >= 50 {
		t.Fatalf("cancellation did not stop dispatch: %d of 50 jobs ran", n)
	}
	sawCancel := false
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			sawCancel = true
		} else if r.Err != nil {
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	if !sawCancel {
		t.Fatal("no result carries the cancellation error")
	}
}

// TestRunSweepCLIInterruptResumes runs RunSweepCLI in a child process (this
// test binary, re-executed) on a four-point journaled sweep. Interrupted by
// SIGINT once its first point is journaled, the child exits 130 with the
// rerun hint; the rerun resumes that point and prints exactly what an
// uninterrupted run prints.
func TestRunSweepCLIInterruptResumes(t *testing.T) {
	if mode := os.Getenv("RUNNER_SWEEP_CLI_CHILD"); mode != "" {
		sweepCLIChild(mode == "interrupt", os.Getenv("RUNNER_SWEEP_CLI_DIR"))
	}
	run := func(mode, dir string) (stdout, stderr string, code int) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRunSweepCLIInterruptResumes$")
		cmd.Env = append(os.Environ(), "RUNNER_SWEEP_CLI_CHILD="+mode, "RUNNER_SWEEP_CLI_DIR="+dir)
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return o.String(), e.String(), code
	}
	want, errOut, code := run("run", filepath.Join(t.TempDir(), "fresh"))
	if code != 0 || want == "" {
		t.Fatalf("uninterrupted run: exit %d, stdout %q, stderr %q", code, want, errOut)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	out, errOut, code := run("interrupt", dir)
	hint := "sweep: interrupted; completed points are journaled — rerun the same command to resume\n"
	if code != 130 || errOut != hint || out != "" {
		t.Fatalf("interrupted run: exit %d, stdout %q, stderr %q; want exit 130 and the rerun hint", code, out, errOut)
	}
	got, errOut, code := run("run", dir)
	resume := "journal: resuming from " + dir + ", 1 completed points loaded\n"
	if code != 0 || !strings.HasPrefix(got, resume) || got[len(resume):] != want {
		t.Fatalf("rerun: exit %d, stderr %q\n got  %q\n want %q after %q", code, errOut, got, want, resume)
	}
}

// sweepCLIChild is the child side of TestRunSweepCLIInterruptResumes. One
// worker runs the points in order, so point 0 is journaled before point 1
// starts; with interrupt set, point 1 signals its own process and waits for
// the cancellation.
func sweepCLIChild(interrupt bool, dir string) {
	pool := NewSeeded(1, 1)
	vals := RunSweepCLI("sweep", dir, "", "sweep-cli-test", func(ctx context.Context, ck *Checkpoint) ([]float64, error) {
		jobs := make([]Job, 4)
		for i := range jobs {
			jobs[i] = Job{Name: fmt.Sprintf("p%d", i), Run: func(c *Ctx) (any, error) {
				if interrupt && i == 1 {
					if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
						return nil, err
					}
					<-ctx.Done()
					return nil, ctx.Err()
				}
				v := float64(c.Seed%1000) / 8
				return &v, nil
			}}
		}
		res, err := RunJournaled[float64](pool, ctx, jobs, ck)
		if err == nil {
			err = FirstErr(res)
		}
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(res))
		for i, r := range res {
			out[i] = *r.Value.(*float64)
		}
		return out, nil
	})
	fmt.Println(vals)
	os.Exit(0)
}
