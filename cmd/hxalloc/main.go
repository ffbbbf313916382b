// Command hxalloc reproduces the allocation study of §IV-B: the job-size
// CDF (Fig. 7), system utilization under the heuristic stacks (Fig. 8),
// the upper-layer fat-tree traffic fractions (Fig. 9), and utilization
// under board failures (Fig. 10). The study is runner.UtilizationSweep:
// the job mixes of each heuristic stack run as parallel jobs with
// deterministic per-mix seeds, so mixes are sampled i.i.d.
//
// -mode sched switches to the trace-driven cluster scheduler
// (internal/sched): jobs arrive over simulated time, queue, fail with the
// boards they run on and restart from checkpoints, sweeping utilization
// against per-board MTBF, checkpoint interval and placement policy.
//
// Usage:
//
//	hxalloc -grid 16x16 -mixes 100            # Fig. 8 on the small Hx2Mesh
//	hxalloc -grid 32x32 -mixes 50 -failures 100  # Fig. 10, large Hx4Mesh
//	hxalloc -cdf                               # Fig. 7 distribution
//	hxalloc -mode sched -grid 8x8 -jobs 200 -mtbf 0,120,40 -ckpt 1,4
//	hxalloc -mode sched -trace trace.json -mtbf 0,100
//	hxalloc -mode sched -grid 8x8 -reserve 0,1 -burst 0,0.1 -defrag 0,0.35
//
// The scheduler-v2 axes: -reserve sweeps EASY reservation backfill
// (bounding large-job wait), -burst adds correlated rack/row outages at
// the given rates (region set by -burst-shape, nested across rates within
// a trial), and -defrag sweeps the fragmentation threshold that triggers
// the checkpoint-migrate defragmentation pass (-defrag-cost hours of
// transfer overhead per migrated job, charged as lost work).
//
// The scheduler-v3 axes: -interference sweeps joint contention pricing
// (jobs are admitted and re-stretched at the slowdown a flow solve over
// the shared upper-layer fat-trees assigns them; -switch-group and -taper
// set the contention topology), -elastic sweeps malleable jobs (shrunk
// admission, regrow, failure trims; -elastic-frac marks synthetic jobs),
// and -priority sweeps checkpoint-evicting preemption (-priority-frac).
// -trace-csv loads Alibaba/Philly-style CSV traces:
//
//	hxalloc -mode sched -grid 8x8 -interference 0,1 -elastic 0,1 -switch-group 2 -taper 0.25
//	hxalloc -mode sched -trace-csv jobs.csv -mtbf 0,100
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hammingmesh/internal/core"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/sched"
	"hammingmesh/internal/workload"
)

func main() {
	spec := runner.DefaultSchedSpec()
	mode := flag.String("mode", "fig8", "experiment: fig8 (static mixes) or sched (trace-driven scheduler)")
	grid := flag.String("grid", "16x16", "board grid (XxY)")
	mixes := flag.Int("mixes", 100, "number of random job mixes (paper: 1000)")
	failures := flag.Int("failures", 0, "randomly failed boards")
	flag.Int64Var(&spec.Seed, "seed", spec.Seed, "random seed")
	board := flag.Int("board", 4, "accelerators per board (4 for Hx2Mesh, 16 for Hx4Mesh)")
	cdf := flag.Bool("cdf", false, "print the job-size board CDF (Fig. 7) and exit")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for the mix sweep")

	// -mode sched flags, bound to the sweep spec and defaulting to its
	// values; runSched parses the list flags and opens the files.
	flag.IntVar(&spec.Jobs, "jobs", spec.Jobs, "sched: synthetic trace length")
	flag.Float64Var(&spec.ArrivalPerH, "arrival", spec.ArrivalPerH, "sched: Poisson arrival rate, jobs/hour")
	flag.Float64Var(&spec.ServiceH, "service", spec.ServiceH, "sched: mean job service time, hours (Pareto tail)")
	flag.Float64Var(&spec.CommFrac, "commfrac", spec.CommFrac, "sched: communication share of each job")
	flag.Float64Var(&spec.HorizonH, "horizon", spec.HorizonH, "sched: simulated horizon, hours")
	flag.Float64Var(&spec.RepairH, "repair", spec.RepairH, "sched: board repair time (MTTR), hours")
	var f schedFlags
	flag.StringVar(&f.mtbfs, "mtbf", list(spec.MTBFs, fmtFloat), "sched: per-board MTBF values in hours (0 = no failures)")
	flag.StringVar(&f.ckpts, "ckpt", list(spec.CkptsH, fmtFloat), "sched: checkpoint intervals in hours (0 = continuous)")
	flag.StringVar(&f.policies, "policies", list(spec.Policies, func(p sched.Policy) string { return string(p) }), "sched: placement policies")
	flag.IntVar(&spec.Trials, "trials", spec.Trials, "sched: seeded trials per point")
	flag.StringVar(&f.trace, "trace", "", "sched: JSON trace file (overrides the synthetic generator)")
	flag.StringVar(&f.reserves, "reserve", list(spec.Reserves, fmtBool), "sched: EASY reservation backfill values to sweep (0=off, 1=on, e.g. 0,1)")
	flag.StringVar(&f.bursts, "burst", list(spec.BurstRates, fmtFloat), "sched: correlated-outage rates in bursts/hour (0 = independent only)")
	flag.StringVar(&f.burstShape, "burst-shape", fmt.Sprintf("%dx%d", spec.Burst.W, spec.Burst.H), "sched: burst region WxH in boards (rack segment / row outage)")
	flag.StringVar(&f.defrags, "defrag", list(spec.DefragThresholds, fmtFloat), "sched: fragmentation thresholds triggering checkpoint-migrate defrag (0 = off)")
	flag.Float64Var(&spec.DefragCostH, "defrag-cost", spec.DefragCostH, "sched: checkpoint-transfer overhead per migrated job, hours")
	flag.StringVar(&f.interferences, "interference", list(spec.Interferences, fmtBool), "sched: joint contention pricing values to sweep (0=off, 1=on, e.g. 0,1)")
	flag.StringVar(&f.elastics, "elastic", list(spec.Elastics, fmtBool), "sched: malleable-job scheduling values to sweep (0=off, 1=on)")
	flag.StringVar(&f.priorities, "priority", list(spec.Preempts, fmtBool), "sched: priority preemption values to sweep (0=off, 1=on)")
	flag.Float64Var(&spec.ElasticFrac, "elastic-frac", spec.ElasticFrac, "sched: fraction of synthetic jobs marked elastic when -elastic sweeps on")
	flag.Float64Var(&spec.PriorityFrac, "priority-frac", spec.PriorityFrac, "sched: fraction of synthetic jobs given elevated priority when -priority sweeps on")
	flag.IntVar(&spec.SwitchGroup, "switch-group", spec.SwitchGroup, "sched: boards per upper-layer switch group (slowdown + contention models)")
	flag.Float64Var(&spec.Taper, "taper", spec.Taper, "sched: upper-layer fat-tree taper fraction for contention pricing")
	flag.StringVar(&f.traceCSV, "trace-csv", "", "sched: CSV trace file, Alibaba/Philly-style columns (overrides the synthetic generator)")
	flag.StringVar(&f.traceOut, "trace-out", "", "sched: write a Chrome trace-event JSON flight recording of one representative run to this file (open in Perfetto); -trace stays the input trace file")
	flag.StringVar(&f.journal, "journal", "", "sched: checkpoint directory — completed sweep points are journaled crash-safely and rerunning the same command resumes")
	flag.StringVar(&f.journalCrash, "journal-crash", "", "crash-injection plan <point>:<n> — die mid-write at that journal boundary (testing; see internal/journal)")
	flag.Parse()

	d := workload.AlibabaLike()
	if *cdf {
		fmt.Println("job size [boards]  P(size)   board CDF (Fig. 7)")
		c := d.BoardCDF()
		for i, s := range d.Sizes {
			fmt.Printf("%17d  %7.4f   %.3f\n", s, d.Probs[i], c[i])
		}
		fmt.Printf("\nboards allocated to jobs < 100 boards: %.0f%% (paper: 39%%)\n",
			100*d.BoardShareBelow(400))
		return
	}

	var x, y int
	if _, err := fmt.Sscanf(*grid, "%dx%d", &x, &y); err != nil || x < 1 || y < 1 {
		fmt.Fprintf(os.Stderr, "bad -grid %q\n", *grid)
		os.Exit(1)
	}
	pool := runner.NewSeeded(*parallel, spec.Seed)

	if *mode == "sched" {
		runSched(pool, x, y, *board, spec, f)
		return
	}
	if f.journal != "" {
		fmt.Fprintln(os.Stderr, "hxalloc: -journal only applies to -mode sched")
		os.Exit(2)
	}
	if *mode != "fig8" {
		fmt.Fprintf(os.Stderr, "bad -mode %q (fig8|sched)\n", *mode)
		os.Exit(1)
	}
	if *failures < 0 || *failures > x*y {
		fatalf("bad -failures %d: want 0 to %d, the grid's board count", *failures, x*y)
	}
	fmt.Printf("grid %dx%d (%d boards), %d mixes, %d failed boards, %d workers\n\n",
		x, y, x*y, *mixes, *failures, pool.Workers())
	fmt.Printf("%-42s %6s %6s %6s | %9s %9s\n", "heuristics (Fig. 8)", "mean", "median", "p99", "a2a-upper", "ar-upper")
	for _, pt := range pool.UtilizationSweep(x, y, *board, *mixes, *failures, workload.Fig8Stacks()) {
		s := pt.Utilization
		fmt.Printf("%-42s %5.1f%% %5.1f%% %5.1f%% | %8.1f%% %8.1f%%\n",
			pt.Stack.Name, 100*s.Mean, 100*s.Median, 100*s.P99, pt.UpperA2APct, pt.UpperAllredPct)
	}
}

// schedFlags holds the string flags of -mode sched: the comma-separated
// lists runSched parses into the spec, and the files it reads, writes and
// journals to.
type schedFlags struct {
	mtbfs, ckpts, policies, reserves, bursts, burstShape string
	defrags, interferences, elastics, priorities         string
	trace, traceCSV, traceOut, journal, journalCrash     string
}

// runSched drives runner.SchedSweep: the utilization-vs-MTBF study on a
// live cluster with checkpoint/restart.
func runSched(pool *runner.Pool, x, y, accelsPerBoard int, spec runner.SchedSpec, f schedFlags) {
	side := int(math.Sqrt(float64(accelsPerBoard)))
	if side < 1 || side*side != accelsPerBoard {
		fatalf("bad -board %d: want a square accelerator count (4, 16, ...)", accelsPerBoard)
	}
	if err := spec.Validate(); err != nil {
		fatalf("%v", err)
	}
	c := core.NewHxMesh(side, side, x, y)
	spec.MTBFs = parseFloats(f.mtbfs, "-mtbf")
	spec.CkptsH = parseFloats(f.ckpts, "-ckpt")
	spec.Policies = nil
	for _, s := range strings.Split(f.policies, ",") {
		p, err := sched.ParsePolicy(strings.TrimSpace(s))
		if err != nil {
			fatalf("%v", err)
		}
		spec.Policies = append(spec.Policies, p)
	}
	spec.Reserves = parseBools(f.reserves, "-reserve")
	spec.Interferences = parseBools(f.interferences, "-interference")
	spec.Elastics = parseBools(f.elastics, "-elastic")
	spec.Preempts = parseBools(f.priorities, "-priority")
	if _, err := fmt.Sscanf(f.burstShape, "%dx%d", &spec.Burst.W, &spec.Burst.H); err != nil || spec.Burst.W < 1 || spec.Burst.H < 1 {
		fatalf("bad -burst-shape %q (want WxH, e.g. 4x1)", f.burstShape)
	}
	spec.BurstRates = parseFloats(f.bursts, "-burst")
	spec.DefragThresholds = parseFloats(f.defrags, "-defrag")
	cfg := spec.Config(c)
	if f.trace != "" && f.traceCSV != "" {
		fatalf("use only one of -trace and -trace-csv")
	}
	if f.trace != "" {
		file, err := os.Open(f.trace)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.FixedTrace, err = sched.LoadTrace(file)
		file.Close()
		if err != nil {
			fatalf("%v", err)
		}
	}
	if f.traceCSV != "" {
		file, err := os.Open(f.traceCSV)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.FixedTrace, err = sched.ParseTraceCSV(file, sched.CSVOptions{
			AccelsPerBoard: accelsPerBoard, DefaultCommFrac: spec.CommFrac,
		})
		file.Close()
		if err != nil {
			fatalf("%v", err)
		}
	}
	pts := runner.RunSweepCLI("hxalloc", f.journal, f.journalCrash, cfg.Fingerprint(c),
		func(ctx context.Context, ck *runner.Checkpoint) ([]runner.SchedPoint, error) {
			return pool.SchedSweepJournaled(ctx, c, cfg, ck)
		})
	fmt.Printf("scheduler sweep: %dx%d boards, horizon %gh, repair %gh, burst shape %dx%d, %d trials, %d workers\n\n",
		x, y, spec.HorizonH, spec.RepairH, spec.Burst.W, spec.Burst.H, spec.Trials, pool.Workers())
	fmt.Printf("%-9s %6s %3s %6s %3s %3s %3s %6s %7s | %8s %8s %6s | %7s %7s %8s | %6s %6s %6s %6s %6s\n",
		"policy", "ckpt-h", "res", "defrag", "inf", "ela", "pre", "burst", "mtbf-h",
		"goodput", "util", "lost", "waitP50", "waitP99", "maxWaitL", "done", "evict", "migr", "restr", "elast")
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	for i, pt := range pts {
		if i > 0 && (pt.Policy != pts[i-1].Policy || pt.CheckpointH != pts[i-1].CheckpointH ||
			pt.Reservation != pts[i-1].Reservation || pt.DefragThreshold != pts[i-1].DefragThreshold ||
			pt.Interference != pts[i-1].Interference || pt.Elastic != pts[i-1].Elastic ||
			pt.Preempt != pts[i-1].Preempt || pt.BurstRate != pts[i-1].BurstRate) {
			fmt.Println()
		}
		mtbf := "inf"
		if pt.MTBFh > 0 {
			mtbf = fmt.Sprintf("%g", pt.MTBFh)
		}
		fmt.Printf("%-9s %6g %3s %6g %3s %3s %3s %6g %7s | %7.1f%% %7.1f%% %5.1f%% | %7.2f %7.2f %8.2f | %6.0f %6.1f %6.1f %6.1f %6.1f\n",
			pt.Policy, pt.CheckpointH, onOff(pt.Reservation), pt.DefragThreshold,
			onOff(pt.Interference), onOff(pt.Elastic), onOff(pt.Preempt), pt.BurstRate, mtbf,
			100*pt.Goodput, 100*pt.Utilization, 100*pt.LostFrac,
			pt.WaitP50, pt.WaitP99, pt.MaxWaitLarge, pt.Completed, pt.Evictions, pt.Migrations,
			pt.Restretches, pt.Shrinks+pt.Regrows)
	}
	if f.traceOut != "" {
		writeSchedTrace(c, cfg, f.traceOut)
	}
}

// writeSchedTrace records one run the sweep scored — every axis at its
// first value, the first positive MTBF (the first MTBF when none is
// positive), trial 0; see runner.SchedTraceRun — into a flight recorder
// and writes it as Chrome trace-event JSON: a queued/run/evicted span per
// job lane plus cluster-lane failure, repair and defrag instants. The
// replay is an extra observation pass and alters none of the printed
// numbers.
func writeSchedTrace(c *core.Cluster, cfg runner.SchedSweepConfig, path string) {
	rec := obs.NewRecorder(0)
	if _, err := runner.SchedTraceRun(c, cfg, rec); err != nil {
		fatalf("trace run: %v", err)
	}
	if err := rec.WriteFile(path); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\ntrace: %d events (%d dropped) -> %s (open in Perfetto / chrome://tracing)\n",
		rec.Len(), rec.Dropped(), path)
}

func parseFloats(s, flagName string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 || !finite(v) {
			fatalf("bad %s entry %q", flagName, part)
		}
		out = append(out, v)
	}
	return out
}

func parseBools(s, flagName string) []bool {
	var out []bool
	for _, v := range parseFloats(s, flagName) {
		out = append(out, v != 0)
	}
	return out
}

// list formats a spec default as the comma-separated value its flag
// parses.
func list[T any](vs []T, format func(T) string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = format(v)
	}
	return strings.Join(parts, ",")
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func fmtBool(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// finite reports whether v is neither NaN nor ±Inf, which strconv and the
// flag package both accept.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
