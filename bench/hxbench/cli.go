package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hammingmesh/internal/core"
)

// step is one CLI invocation of a workload's script, with its in-process
// mirror.
type step struct {
	name    string
	bin     string // hxsim | hxalloc
	args    []string
	journal bool // runs with a fresh -journal directory every time
	// replay redoes the step's work in process, in spans, and returns the
	// result lines the CLI must have printed.
	replay func(rp *replayer) ([]string, error)
}

// cliWorkload is a script of CLI steps run one after another, each a cold
// process, as a user (or tools/run_all.sh) runs them.
type cliWorkload struct {
	name string
	// steps is the script; toy selects the cheap variant smoke runs use.
	steps func(o *options, toy bool) []step
}

// paperSmall is tools/run_all.sh at SIZE=small: every paper figure's CLI.
var paperSmall = &cliWorkload{
	name: "paper-small",
	steps: func(o *options, toy bool) []step {
		size, mixes, sa := core.Small, 25, schedArgs{grid: 8, jobs: 120, horizon: 40, mtbfs: "0,120,40,12", trials: 3}
		if toy {
			size, mixes, sa = core.Tiny, 4, schedArgs{grid: 8, jobs: 30, horizon: 20, mtbfs: "0,40", trials: 1}
		}
		sa.ckpts, sa.policies, sa.seed, sa.workers = "2", "firstfit,bestfit,fragaware", o.seed, o.workers
		steps := []step{hxallocCDF(), hxallocFig8(8, mixes, o.seed, o.workers)}
		for _, t := range []string{"hx2mesh", "fattree", "dragonfly", "torus"} {
			steps = append(steps, hxsimAlltoall("fig11_alltoall_"+t, t, size, 4, o.seed, o.workers))
		}
		return append(steps,
			hxsimPermutation("fig12_permutation", size, o.seed, o.workers),
			hxsimAllreduce("fig13_allreduce", size, o.seed, o.workers),
			hxsimResilience("resilience_sweep", size, o.seed, o.workers),
			hxallocSched("sched_goodput_grid", sa))
	},
}

// table2Small is the Table II global-bandwidth column: the flow-level
// alltoall of every Table II topology at the 1k-accelerator size.
var table2Small = &cliWorkload{
	name: "table2-small",
	steps: func(o *options, toy bool) []step {
		size, shifts := core.Small, 8
		if toy {
			size, shifts = core.Tiny, 2
		}
		var steps []step
		for _, t := range core.TopologyNames() {
			steps = append(steps, hxsimAlltoall("table2_"+t, t, size, shifts, o.seed, o.workers))
		}
		return steps
	},
}

// schedContention is the §V scheduler grid with joint contention pricing
// and elastic jobs: six seeded synthetic traces per pass, so the
// trace-to-trace variation of scheduling work averages out within a run.
var schedContention = &cliWorkload{
	name: "sched-contention",
	steps: func(o *options, toy bool) []step {
		sa := schedArgs{grid: 8, jobs: 100, horizon: 30, arrival: 8, service: 5, commfrac: 0.6, mtbfs: "0,40",
			ckpts: "2", policies: "firstfit,bestfit,fragaware", trials: 6, reserve: "0,1",
			interference: "0,1", elastic: "0,1", switchGroup: 2, taper: 0.25, seed: o.seed, workers: o.workers}
		if toy {
			sa.jobs, sa.horizon, sa.trials, sa.policies, sa.reserve, sa.elastic = 60, 20, 2, "firstfit", "0", "0"
		}
		return []step{hxallocSched("sched_contention_grid", sa)}
	},
}

// runCLI runs a CLI workload: set-up, which only builds the programs
// (every step is a cold process, so the passes pay the programs' own
// set-up), then measured passes of the script until the run's time is up.
// A traced run makes one end-to-end pass and then replays it in process.
func runCLI(o *options, w *cliWorkload) *result {
	r := newResult(w.name)
	defer r.finish()
	for range o.setups() {
		start := time.Now()
		if err := buildBinaries(o.root, o.binDir); err != nil {
			r.Attempted++
			r.Failed++
			r.fail("set-up: %v", err)
			return r
		}
		r.SetupS = append(r.SetupS, time.Since(start).Seconds())
	}

	steps := w.steps(o, o.smoke)
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = s.name
	}
	var outs map[string][]byte // the first pass's outputs
	start := time.Now()
	r.RefS = append(r.RefS, o.refTime(setupRef))
	for k := 0; k == 0 || (!o.trace && time.Since(start) < o.seconds); k++ {
		p := pass{}
		got := map[string][]byte{}
		pstart := time.Now()
		for _, s := range steps {
			r.Attempted++
			run := o.runStep(s)
			p.PeakRSSMB = max(p.PeakRSSMB, run.rssMB)
			p.Ops = append(p.Ops, op{Name: s.name, Ms: ms(run.wall), RSSMB: run.rssMB, Failed: run.err != nil})
			if run.err != nil {
				r.Failed++
				r.fail("pass %d: %v", k+1, run.err)
			}
			got[s.name] = []byte(normalize(string(run.out)))
		}
		wall := time.Since(pstart)
		p.WallS = wall.Seconds()
		r.Passes = append(r.Passes, p)
		r.RefS = append(r.RefS, o.refTime(wall/10))
		if outs == nil {
			outs = got
			continue
		}
		for _, n := range names {
			if !bytes.Equal(got[n], outs[n]) {
				r.fail("pass %d: %s printed other results than pass 1", k+1, n)
			}
		}
	}
	o.checkDigest(r, digest(names, outs))
	if !o.trace {
		r.setEndToEnd()
		return r
	}

	replayUntil(o, r, func(rp *replayer, first bool) error {
		for _, s := range steps {
			lines, err := s.replay(rp)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			rp.t.sample("runner", "runner_jobs_total", render(rp.reg).sum("runner_jobs_total"))
			for _, l := range lines {
				if first && !bytes.Contains(outs[s.name], []byte(normalize(l))) {
					r.fail("replay %s: the CLI did not print %q", s.name, l)
				}
			}
		}
		return nil
	})
	return r
}

// replayUntil repeats a traced replay until the run's time is up (at
// least once), writes the first replay's spans as the Perfetto trace and
// reports each per-layer metric's median over the replays.
func replayUntil(o *options, r *result, replay func(rp *replayer, first bool) error) {
	var runs, extras []map[string]metric
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < o.seconds; k++ {
		rp := o.newReplayer()
		rstart := time.Now()
		if err := replay(rp, k == 0); err != nil {
			r.fail("replay: %v", err)
			return
		}
		wall := time.Since(rstart).Seconds() - rp.t.probeS
		m, x := layerMetrics(rp.t, render(rp.reg), wall, o.workers, rp.counts)
		runs, extras = append(runs, m), append(extras, x)
		if k == 0 {
			path := o.traceFile(r.Workload)
			if err := rp.t.write(path); err != nil {
				r.fail("writing the trace: %v", err)
			}
			// Results files name the trace relative to the repository.
			r.TraceFile = path
			if rel, err := filepath.Rel(o.root, path); err == nil && !strings.HasPrefix(rel, "..") {
				r.TraceFile = rel
			}
		}
	}
	r.Metrics, r.Extra = medianMetrics(runs), medianMetrics(extras)
}

// runStep runs one CLI step, giving journaled steps a fresh journal.
func (o *options) runStep(s step) procRun {
	args := s.args
	if s.journal {
		dir, err := o.mkdir("journal")
		if err != nil {
			return procRun{err: err}
		}
		args = append(append([]string(nil), args...), "-journal", dir)
	}
	return runProc(o.work, filepath.Join(o.binDir, s.bin), args)
}

// medianMetrics takes each metric's median over repeated replays.
func medianMetrics(runs []map[string]metric) map[string]metric {
	vals := map[string][]float64{}
	out := map[string]metric{}
	for _, m := range runs {
		for name, v := range m {
			vals[name] = append(vals[name], v.Value)
			out[name] = v
		}
	}
	for name, vs := range vals {
		out[name] = metric{median(vs), out[name].Unit}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func itoa[T int | int64](v T) string { return strconv.FormatInt(int64(v), 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
