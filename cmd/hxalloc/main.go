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
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"hammingmesh/internal/core"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/sched"
	"hammingmesh/internal/workload"
)

func main() {
	mode := flag.String("mode", "fig8", "experiment: fig8 (static mixes) or sched (trace-driven scheduler)")
	grid := flag.String("grid", "16x16", "board grid (XxY)")
	mixes := flag.Int("mixes", 100, "number of random job mixes (paper: 1000)")
	failures := flag.Int("failures", 0, "randomly failed boards")
	seed := flag.Int64("seed", 1, "random seed")
	board := flag.Int("board", 4, "accelerators per board (4 for Hx2Mesh, 16 for Hx4Mesh)")
	cdf := flag.Bool("cdf", false, "print the job-size board CDF (Fig. 7) and exit")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for the mix sweep")

	// -mode sched flags.
	jobs := flag.Int("jobs", 200, "sched: synthetic trace length")
	arrival := flag.Float64("arrival", 4, "sched: Poisson arrival rate, jobs/hour")
	service := flag.Float64("service", 3, "sched: mean job service time, hours (Pareto tail)")
	commfrac := flag.Float64("commfrac", 0.3, "sched: communication share of each job")
	horizon := flag.Float64("horizon", 60, "sched: simulated horizon, hours")
	repair := flag.Float64("repair", 10, "sched: board repair time (MTTR), hours")
	mtbfList := flag.String("mtbf", "0,500,120,40", "sched: per-board MTBF values in hours (0 = no failures)")
	ckptList := flag.String("ckpt", "2", "sched: checkpoint intervals in hours (0 = continuous)")
	policyList := flag.String("policies", "firstfit,bestfit,fragaware", "sched: placement policies")
	trials := flag.Int("trials", 4, "sched: seeded trials per point")
	traceFile := flag.String("trace", "", "sched: JSON trace file (overrides the synthetic generator)")
	reserveList := flag.String("reserve", "0", "sched: EASY reservation backfill values to sweep (0=off, 1=on, e.g. 0,1)")
	burstList := flag.String("burst", "0", "sched: correlated-outage rates in bursts/hour (0 = independent only)")
	burstShape := flag.String("burst-shape", "4x1", "sched: burst region WxH in boards (rack segment / row outage)")
	defragList := flag.String("defrag", "0", "sched: fragmentation thresholds triggering checkpoint-migrate defrag (0 = off)")
	defragCost := flag.Float64("defrag-cost", 0.1, "sched: checkpoint-transfer overhead per migrated job, hours")
	interferenceList := flag.String("interference", "0", "sched: joint contention pricing values to sweep (0=off, 1=on, e.g. 0,1)")
	elasticList := flag.String("elastic", "0", "sched: malleable-job scheduling values to sweep (0=off, 1=on)")
	priorityList := flag.String("priority", "0", "sched: priority preemption values to sweep (0=off, 1=on)")
	elasticFrac := flag.Float64("elastic-frac", 0.3, "sched: fraction of synthetic jobs marked elastic when -elastic sweeps on")
	priorityFrac := flag.Float64("priority-frac", 0.2, "sched: fraction of synthetic jobs given elevated priority when -priority sweeps on")
	switchGroup := flag.Int("switch-group", 16, "sched: boards per upper-layer switch group (slowdown + contention models)")
	taper := flag.Float64("taper", 1, "sched: upper-layer fat-tree taper fraction for contention pricing")
	traceCSVFile := flag.String("trace-csv", "", "sched: CSV trace file, Alibaba/Philly-style columns (overrides the synthetic generator)")
	traceOut := flag.String("trace-out", "", "sched: write a Chrome trace-event JSON flight recording of one representative run to this file (open in Perfetto); -trace stays the input trace file")
	journalDir := flag.String("journal", "", "sched: checkpoint directory — completed sweep points are journaled crash-safely and rerunning the same command resumes")
	journalCrash := flag.String("journal-crash", "", "crash-injection plan <point>:<n> — die mid-write at that journal boundary (testing; see internal/journal)")
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
	pool := runner.NewSeeded(*parallel, *seed)

	if *mode == "sched" {
		runSched(pool, x, y, *board, schedFlags{
			jobs: *jobs, arrival: *arrival, service: *service, commfrac: *commfrac,
			horizon: *horizon, repair: *repair, mtbfs: *mtbfList, ckpts: *ckptList,
			policies: *policyList, trials: *trials, seed: *seed, traceFile: *traceFile,
			reserves: *reserveList, bursts: *burstList, burstShape: *burstShape,
			defrags: *defragList, defragCost: *defragCost, traceOut: *traceOut,
			journalDir: *journalDir, journalCrash: *journalCrash,
			interferences: *interferenceList, elastics: *elasticList, priorities: *priorityList,
			elasticFrac: *elasticFrac, priorityFrac: *priorityFrac,
			switchGroup: *switchGroup, taper: *taper, traceCSV: *traceCSVFile,
		})
		return
	}
	if *journalDir != "" {
		fmt.Fprintln(os.Stderr, "hxalloc: -journal only applies to -mode sched")
		os.Exit(2)
	}
	if *mode != "fig8" {
		fmt.Fprintf(os.Stderr, "bad -mode %q (fig8|sched)\n", *mode)
		os.Exit(1)
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

type schedFlags struct {
	jobs                              int
	arrival, service, commfrac        float64
	horizon, repair                   float64
	mtbfs, ckpts, policies, traceFile string
	reserves, bursts, burstShape      string
	defrags, traceOut                 string
	journalDir, journalCrash          string
	interferences, elastics           string
	priorities, traceCSV              string
	elasticFrac, priorityFrac, taper  float64
	switchGroup                       int
	defragCost                        float64
	trials                            int
	seed                              int64
}

// runSched drives runner.SchedSweep: the utilization-vs-MTBF study on a
// live cluster with checkpoint/restart.
func runSched(pool *runner.Pool, x, y, accelsPerBoard int, f schedFlags) {
	side := int(math.Sqrt(float64(accelsPerBoard)))
	if side < 1 || side*side != accelsPerBoard {
		fatalf("bad -board %d: want a square accelerator count (4, 16, ...)", accelsPerBoard)
	}
	for _, v := range []struct {
		flag string
		v    float64
	}{{"-arrival", f.arrival}, {"-service", f.service}, {"-commfrac", f.commfrac},
		{"-horizon", f.horizon}, {"-repair", f.repair}, {"-defrag-cost", f.defragCost},
		{"-elastic-frac", f.elasticFrac}, {"-priority-frac", f.priorityFrac}, {"-taper", f.taper}} {
		if !finite(v.v) {
			fatalf("bad %s %v: want a finite number", v.flag, v.v)
		}
	}
	c := core.NewHxMesh(side, side, x, y)
	mtbfs := parseFloats(f.mtbfs, "-mtbf")
	ckpts := parseFloats(f.ckpts, "-ckpt")
	var policies []sched.Policy
	for _, s := range strings.Split(f.policies, ",") {
		p, err := sched.ParsePolicy(strings.TrimSpace(s))
		if err != nil {
			fatalf("%v", err)
		}
		policies = append(policies, p)
	}
	parseBools := func(s, flagName string) []bool {
		var out []bool
		for _, v := range parseFloats(s, flagName) {
			out = append(out, v != 0)
		}
		return out
	}
	anyTrue := func(bs []bool) bool {
		for _, b := range bs {
			if b {
				return true
			}
		}
		return false
	}
	reserves := parseBools(f.reserves, "-reserve")
	interferences := parseBools(f.interferences, "-interference")
	elastics := parseBools(f.elastics, "-elastic")
	priorities := parseBools(f.priorities, "-priority")
	var shapeW, shapeH int
	if _, err := fmt.Sscanf(f.burstShape, "%dx%d", &shapeW, &shapeH); err != nil || shapeW < 1 || shapeH < 1 {
		fatalf("bad -burst-shape %q (want WxH, e.g. 4x1)", f.burstShape)
	}
	traceCfg := sched.TraceConfig{
		Jobs: f.jobs, ArrivalRate: f.arrival, MeanService: f.service,
		AccelsPerBoard: accelsPerBoard, MaxBoards: x * y, CommFrac: f.commfrac,
	}
	if anyTrue(elastics) {
		traceCfg.ElasticFrac = f.elasticFrac
	}
	if anyTrue(priorities) {
		traceCfg.PriorityFrac = f.priorityFrac
	}
	// The slowdown model always carries the -switch-group topology (16
	// matches the model's default); the contention model is built only
	// when the interference axis sweeps on.
	baseCfg := sched.Config{
		HorizonH: f.horizon, RepairH: f.repair, DefragCostH: f.defragCost,
		Slowdown: &sched.CommSlowdown{BoardA: side, BoardB: side, GroupBoards: f.switchGroup},
	}
	if anyTrue(interferences) {
		baseCfg.Interference = &sched.Interference{
			BoardA: side, BoardB: side, GroupBoards: f.switchGroup, Taper: f.taper,
		}
	}
	cfg := runner.SchedSweepConfig{
		Trace:            traceCfg,
		Base:             baseCfg,
		MTBFs:            mtbfs,
		CheckpointsH:     ckpts,
		Policies:         policies,
		Reservations:     reserves,
		BurstRates:       parseFloats(f.bursts, "-burst"),
		Burst:            sched.BurstShape{W: shapeW, H: shapeH},
		DefragThresholds: parseFloats(f.defrags, "-defrag"),
		Interferences:    interferences,
		Elastics:         elastics,
		Preempts:         priorities,
		Trials:           f.trials,
		Seed:             f.seed,
	}
	if f.traceFile != "" && f.traceCSV != "" {
		fatalf("use only one of -trace and -trace-csv")
	}
	if f.traceFile != "" {
		file, err := os.Open(f.traceFile)
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
			AccelsPerBoard: accelsPerBoard, DefaultCommFrac: f.commfrac,
		})
		file.Close()
		if err != nil {
			fatalf("%v", err)
		}
	}
	// SIGINT/SIGTERM cancel the sweep: in-flight points finish and are
	// journaled, the rest of the grid is skipped, and rerunning the same
	// command resumes from the checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var ck *runner.Checkpoint
	if f.journalDir != "" {
		var err error
		ck, err = runner.OpenCheckpointCLI(f.journalDir, f.journalCrash, cfg.Fingerprint(c))
		if err != nil {
			fatalf("%v", err)
		}
		defer ck.Close()
		if n := ck.Len(); n > 0 {
			fmt.Printf("journal: resuming from %s, %d completed points loaded\n", f.journalDir, n)
		}
	}
	pts, err := pool.SchedSweepJournaled(ctx, c, cfg, ck)
	if err != nil {
		if ctx.Err() != nil {
			if ck != nil {
				ck.Close()
				fmt.Fprintln(os.Stderr, "hxalloc: interrupted; completed points are journaled — rerun the same command to resume")
			} else {
				fmt.Fprintln(os.Stderr, "hxalloc: interrupted")
			}
			os.Exit(130)
		}
		fatalf("%v", err)
	}
	fmt.Printf("scheduler sweep: %dx%d boards, horizon %gh, repair %gh, burst shape %dx%d, %d trials, %d workers\n\n",
		x, y, f.horizon, f.repair, shapeW, shapeH, f.trials, pool.Workers())
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
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := rec.WriteJSON(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fatalf("trace write: %v", err)
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

// finite reports whether v is neither NaN nor ±Inf, which strconv and the
// flag package both accept.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
