package runner

import (
	"context"
	"fmt"
	"math"
	"slices"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/core"
	"hammingmesh/internal/journal"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/sched"
)

// SchedSweepConfig describes a scheduler sweep: one trace-driven cluster
// simulation per point of its axes and trial, all on the same board grid.
// Every axis is required: a sweep with an empty one is refused.
type SchedSweepConfig struct {
	// Trace parameterizes the synthetic trace; each trial draws its own
	// trace from a deterministic per-trial seed.
	Trace sched.TraceConfig
	// FixedTrace, when non-nil, replaces the synthetic traces: every
	// trial replays this exact trace (e.g. one loaded with
	// sched.LoadTrace) and trials differ only in their failure draws.
	FixedTrace []sched.TraceJob
	// Base is the scheduler config template. Its per-point fields (Policy,
	// CheckpointH, Reservation, DefragThreshold, Elastic, Preempt) are
	// never read: the axes below set them for each point. Base.HorizonH
	// must be finite and positive. A nil Base.Slowdown defaults to the
	// communication model for the cluster's board type, and
	// Base.Interference is only the contention model the
	// interference-on points share (nil: one derived from the cluster's
	// board dimensions); each model, with its caches, is shared across
	// all jobs of the sweep.
	Base sched.Config
	// MTBFs are the per-board mean-time-between-failure values in hours;
	// 0 means no failures. Order is preserved in the result.
	MTBFs []float64
	// CheckpointsH are the checkpoint intervals to sweep.
	CheckpointsH []float64
	// Policies are the placement policies to sweep.
	Policies []sched.Policy
	// Reservations sweeps EASY reservation backfill on/off.
	Reservations []bool
	// BurstRates sweeps the correlated-outage rate in bursts/hour (0 =
	// independent failures only). Within a trial the burst sets are nested
	// across rates (sched.Failures thinning), like the MTBF axis.
	BurstRates []float64
	// Burst is the board-region footprint of one burst; sched.NewBursts
	// fills a width or height below 1 from sched.DefaultBurstShape, a 4x1
	// rack segment.
	Burst sched.BurstShape
	// DefragThresholds sweeps the fragmentation threshold that triggers
	// checkpoint-migrate defragmentation (0 = disabled).
	DefragThresholds []float64
	// Interferences sweeps cross-job contention pricing on/off.
	Interferences []bool
	// Elastics sweeps malleable-job scheduling on/off (shrunk admission,
	// regrow, failure trims for jobs with MinBoards).
	Elastics []bool
	// Preempts sweeps priority preemption on/off.
	Preempts []bool
	// Trials is the number of seeded trials per point, at least 1.
	Trials int
	// Seed derives every per-trial trace, board sequence and failure
	// process.
	Seed int64
}

// SchedSpec is a scheduler sweep as hxalloc's flags and hxd's sched kind
// state it: flat scalars and axis lists, without the cluster.
// DefaultSchedSpec holds hxalloc's flag defaults; hxd starts from it and
// sets the fields it serves. Config resolves a spec on a cluster.
type SchedSpec struct {
	// Jobs, ArrivalPerH, ServiceH and CommFrac shape the synthetic trace:
	// its length, Poisson arrivals per hour, mean service hours (Pareto
	// tail) and each job's communication share. ElasticFrac and
	// PriorityFrac mark that share of its jobs elastic or high-priority,
	// but only when the Elastics or Preempts axis sweeps on.
	Jobs                            int
	ArrivalPerH, ServiceH, CommFrac float64
	ElasticFrac, PriorityFrac       float64
	// HorizonH, RepairH and DefragCostH are sched.Config's horizon, board
	// repair time and per-migration checkpoint cost, in hours.
	HorizonH, RepairH, DefragCostH float64
	// SwitchGroup is the boards per upper-layer switch group of the
	// slowdown and contention models, and Taper scales the contention
	// model's group uplinks. UpperPenalty is sched.CommSlowdown's.
	SwitchGroup         int
	Taper, UpperPenalty float64
	// The axes and trials of SchedSweepConfig.
	MTBFs, CkptsH, BurstRates, DefragThresholds []float64
	Policies                                    []sched.Policy
	Reserves, Interferences, Elastics, Preempts []bool
	Burst                                       sched.BurstShape
	Trials                                      int
	Seed                                        int64
}

// DefaultSchedSpec returns hxalloc's defaults.
func DefaultSchedSpec() SchedSpec {
	return SchedSpec{
		Jobs: 200, ArrivalPerH: 4, ServiceH: 3, CommFrac: 0.3, ElasticFrac: 0.3, PriorityFrac: 0.2,
		HorizonH: 60, RepairH: 10, DefragCostH: 0.1, SwitchGroup: alloc.GroupBoards, Taper: 1,
		MTBFs: []float64{0, 500, 120, 40}, CkptsH: []float64{2}, BurstRates: []float64{0},
		DefragThresholds: []float64{0},
		Policies:         []sched.Policy{sched.FirstFit, sched.BestFit, sched.FragAware},
		Reserves:         []bool{false}, Interferences: []bool{false},
		Elastics: []bool{false}, Preempts: []bool{false},
		Burst: sched.DefaultBurstShape(), Trials: 4, Seed: 1,
	}
}

// Config resolves the spec on c, an HxMesh-family cluster, taking the
// board shape and grid from it. The slowdown model always carries
// SwitchGroup; the contention model exists only when the interference axis
// sweeps on.
func (s SchedSpec) Config(c *core.Cluster) SchedSweepConfig {
	a, b := c.Hx.Cfg.A, c.Hx.Cfg.B
	cfg := SchedSweepConfig{
		Trace: sched.TraceConfig{Jobs: s.Jobs, ArrivalRate: s.ArrivalPerH, MeanService: s.ServiceH,
			AccelsPerBoard: a * b, MaxBoards: c.Grid.X * c.Grid.Y, CommFrac: s.CommFrac},
		Base: sched.Config{HorizonH: s.HorizonH, RepairH: s.RepairH, DefragCostH: s.DefragCostH,
			Slowdown: &sched.CommSlowdown{BoardA: a, BoardB: b, GroupBoards: s.SwitchGroup, UpperPenalty: s.UpperPenalty}},
		MTBFs: s.MTBFs, CheckpointsH: s.CkptsH, Policies: s.Policies,
		Reservations: s.Reserves, BurstRates: s.BurstRates, Burst: s.Burst,
		DefragThresholds: s.DefragThresholds, Interferences: s.Interferences,
		Elastics: s.Elastics, Preempts: s.Preempts, Trials: s.Trials, Seed: s.Seed,
	}
	if slices.Contains(s.Elastics, true) {
		cfg.Trace.ElasticFrac = s.ElasticFrac
	}
	if slices.Contains(s.Preempts, true) {
		cfg.Trace.PriorityFrac = s.PriorityFrac
	}
	if slices.Contains(s.Interferences, true) {
		cfg.Base.Interference = &sched.Interference{BoardA: a, BoardB: b, GroupBoards: s.SwitchGroup, Taper: s.Taper}
	}
	return cfg
}

// Validate refuses a spec whose scalars no sweep can mean: no jobs or no
// trials, a non-positive arrival rate, service time or horizon, a share
// outside [0, 1], a negative repair or migration time, a switch group
// below one board, a taper outside (0, 1], or any non-finite number. Its
// errors name the hxalloc flag that sets the field.
func (s SchedSpec) Validate() error {
	for _, v := range []struct {
		flag string
		val  float64
		ok   bool
		want string
	}{
		{"-jobs", float64(s.Jobs), s.Jobs >= 1, "an integer of at least 1"},
		{"-trials", float64(s.Trials), s.Trials >= 1, "an integer of at least 1"},
		{"-arrival", s.ArrivalPerH, s.ArrivalPerH > 0, "a finite number above 0"},
		{"-service", s.ServiceH, s.ServiceH > 0, "a finite number above 0"},
		{"-horizon", s.HorizonH, s.HorizonH > 0, "a finite number above 0"},
		{"-commfrac", s.CommFrac, s.CommFrac >= 0 && s.CommFrac <= 1, "a share in [0, 1]"},
		{"-elastic-frac", s.ElasticFrac, s.ElasticFrac >= 0 && s.ElasticFrac <= 1, "a share in [0, 1]"},
		{"-priority-frac", s.PriorityFrac, s.PriorityFrac >= 0 && s.PriorityFrac <= 1, "a share in [0, 1]"},
		{"-repair", s.RepairH, s.RepairH >= 0, "a finite number of at least 0"},
		{"-defrag-cost", s.DefragCostH, s.DefragCostH >= 0, "a finite number of at least 0"},
		{"-switch-group", float64(s.SwitchGroup), s.SwitchGroup >= 1, "an integer of at least 1"},
		{"-taper", s.Taper, s.Taper > 0 && s.Taper <= 1, "a fraction in (0, 1]"},
	} {
		// NaN fails every comparison; +Inf passes the open-ended ones.
		if !v.ok || math.IsInf(v.val, 0) {
			return fmt.Errorf("bad %s %v: want %s", v.flag, v.val, v.want)
		}
	}
	return nil
}

// SchedPoint aggregates the trials of one (policy, checkpoint, MTBF)
// combination. Mean values are over trials.
type SchedPoint struct {
	Policy      sched.Policy
	CheckpointH float64
	// Reservation, BurstRate and DefragThreshold identify the point on the
	// scheduler-v2 axes (reservation backfill on/off, correlated bursts
	// per hour, defragmentation trigger).
	Reservation     bool
	BurstRate       float64
	DefragThreshold float64
	// Interference, Elastic and Preempt identify the point on the
	// scheduler-v3 axes (joint contention pricing, malleable jobs,
	// priority preemption).
	Interference, Elastic, Preempt bool
	// MTBFh is the per-board MTBF of the point (0 = no failures).
	MTBFh float64
	// Goodput is the mean fraction of raw board-hours converted to
	// checkpoint-surviving work — the utilization-vs-MTBF curve. Within
	// one (policy, checkpoint) group the per-trial failure sets are
	// nested across MTBFs, so the mean curve measures degradation, not
	// sampling noise.
	Goodput float64
	// MinGoodput is the worst trial's goodput.
	MinGoodput float64
	// Utilization is the mean time-averaged allocated/working fraction.
	Utilization float64
	// LostFrac is the mean share of performed work destroyed by
	// evictions.
	LostFrac float64
	// WaitP50/WaitP99 and SlowP50/SlowP99 are means of the per-trial
	// percentiles.
	WaitP50, WaitP99 float64
	SlowP50, SlowP99 float64
	// Completed and Evictions are mean counts per trial.
	Completed, Evictions float64
	// MaxWaitLarge is the worst large-job wait of any trial, in hours —
	// the bound reservation backfill buys.
	MaxWaitLarge float64
	// Defrags and Migrations are mean defragmentation passes and job
	// migrations per trial.
	Defrags, Migrations float64
	// Restretches, Shrinks, Regrows and Preemptions are mean v3 feature
	// activations per trial (contention re-pricings of running jobs,
	// elastic width changes, priority evictions).
	Restretches, Shrinks, Regrows, Preemptions float64
	Trials                                     int
}

// Fingerprint canonicalizes the sweep — the cluster shape, then the whole
// config with the slowdown model it runs with — into a content hash (the
// hxd canonicalize-then-hash discipline), used by checkpoints to refuse
// resuming a journal under different parameters. The config is embedded,
// so every field is hashed, in declaration order, without being listed
// here. Base.Trace is excluded: recording never changes results.
func (cfg SchedSweepConfig) Fingerprint(c *core.Cluster) string {
	cfg.Base.Slowdown = cfg.slowdown(c)
	cfg.Base.Trace = nil
	return journal.KeyOf(struct {
		Kind       string
		Family     string
		A, B, X, Y int
		SchedSweepConfig
	}{"sched-sweep", string(c.Net.Meta.Family), c.Hx.Cfg.A, c.Hx.Cfg.B, c.Grid.X, c.Grid.Y, cfg})
}

// slowdown is the model the sweep runs with: Base.Slowdown, or the default
// model of the cluster's board type when it is nil.
func (cfg SchedSweepConfig) slowdown(c *core.Cluster) *sched.CommSlowdown {
	if cfg.Base.Slowdown != nil {
		return cfg.Base.Slowdown
	}
	return sched.NewCommSlowdown(c.Hx.Cfg.A, c.Hx.Cfg.B)
}

// SchedSweep runs the scheduler sweep on the pool, one job per (point,
// trial), and returns the points in (policy, checkpoint, reservation,
// defrag, interference, elastic, preempt, burst, MTBF) list order — MTBF
// innermost, so each consecutive
// len(MTBFs) block is one utilization-vs-MTBF curve. Every trial draws its
// trace, board-failure order, failure timing and burst process from seeds
// derived only from cfg.Seed and the trial index, so results are identical
// for any worker count; within a trial the failure sets are nested across
// MTBF values and burst rates (sched.Failures thinning), which makes
// the goodput curve of each group measure monotone degradation.
func (p *Pool) SchedSweep(c *core.Cluster, cfg SchedSweepConfig) ([]SchedPoint, error) {
	return p.SchedSweepJournaled(context.Background(), c, cfg, nil)
}

// SchedSweepJournaled is SchedSweep with cancellation and crash-safe
// resume. With a non-nil checkpoint (opened against cfg.Fingerprint),
// every completed (point, trial) metric is journaled as it finishes and
// already-journaled ones are not re-simulated on a rerun; because job
// indices, seeds and aggregation order are identical either way, a sweep
// killed at any point and resumed produces byte-identical points to an
// uninterrupted run. The per-trial prep round (trace synthesis, failure
// sampling) is pure derivation from cfg.Seed and is recomputed, not
// journaled.
func (p *Pool) SchedSweepJournaled(ctx context.Context, c *core.Cluster, cfg SchedSweepConfig, ck *Checkpoint) ([]SchedPoint, error) {
	pl, err := newSchedPlan(c, cfg)
	if err != nil {
		return nil, err
	}
	trials := cfg.Trials

	// Per-trial inputs are shared by every point of the trial; build them
	// as a first round of pool jobs (trace synthesis and failure sampling
	// are the sweep's only serial state).
	prepJobs := make([]Job, trials)
	for tr := range prepJobs {
		prepJobs[tr] = Job{
			Name: fmt.Sprintf("sched-prep-t%d", tr),
			Run:  func(*Ctx) (any, error) { return pl.trial(tr), nil },
		}
	}
	prepResults := p.RunCtx(ctx, prepJobs)
	if err := FirstErr(prepResults); err != nil {
		return nil, err
	}

	jobs := make([]Job, 0, len(pl.points)*trials)
	for _, pt := range pl.points {
		for tr := 0; tr < trials; tr++ {
			// Point-job names are unique within the sweep and deterministic:
			// RunJournaled keys the checkpoint by them.
			jobs = append(jobs, Job{
				Name: fmt.Sprintf("sched-%s-ckpt%g-res%v-defrag%g-inf%v-ela%v-pre%v-burst%g-mtbf%g-t%d",
					pt.Policy, pt.CheckpointH, pt.Reservation, pt.DefragThreshold,
					pt.Interference, pt.Elastic, pt.Preempt, pt.BurstRate, pt.MTBFh, tr),
				Run: func(*Ctx) (any, error) {
					return pl.run(pt, prepResults[tr].Value.(*schedTrial), nil)
				},
			})
		}
	}
	results, err := RunJournaled[sched.Metrics](p, ctx, jobs, ck)
	if err != nil {
		return nil, err
	}
	if err := FirstErr(results); err != nil {
		return nil, err
	}

	for ki := range pl.points {
		pt := &pl.points[ki]
		for tr := 0; tr < trials; tr++ {
			m := results[ki*trials+tr].Value.(*sched.Metrics)
			p.flushSchedDecisions(m)
			n := float64(trials)
			pt.Goodput += m.Goodput / n
			pt.Utilization += m.Utilization / n
			pt.LostFrac += m.LostFrac / n
			pt.WaitP50 += m.WaitP50 / n
			pt.WaitP99 += m.WaitP99 / n
			pt.SlowP50 += m.SlowP50 / n
			pt.SlowP99 += m.SlowP99 / n
			pt.Completed += float64(m.Completed) / n
			pt.Evictions += float64(m.Evictions) / n
			pt.Defrags += float64(m.Defrags) / n
			pt.Migrations += float64(m.Migrations) / n
			pt.Restretches += float64(m.Restretches) / n
			pt.Shrinks += float64(m.Shrinks) / n
			pt.Regrows += float64(m.Regrows) / n
			pt.Preemptions += float64(m.Preemptions) / n
			if m.MaxWaitLarge > pt.MaxWaitLarge {
				pt.MaxWaitLarge = m.MaxWaitLarge
			}
			if tr == 0 || m.Goodput < pt.MinGoodput {
				pt.MinGoodput = m.Goodput
			}
		}
	}
	return pl.points, nil
}

// SchedTraceRun replays one run of the sweep with rec attached as the
// scheduler's flight recorder: the point with every axis at its first
// value and the first positive MTBF (the first MTBF when none is
// positive), at trial 0. The sweep scores exactly this run, and recording
// never changes a result (obs contract), so the returned metrics are that
// point's trial-0 metrics.
func SchedTraceRun(c *core.Cluster, cfg SchedSweepConfig, rec *obs.Recorder) (*sched.Metrics, error) {
	pl, err := newSchedPlan(c, cfg)
	if err != nil {
		return nil, err
	}
	// MTBF is the innermost axis, so point i of the first block is MTBF i.
	pt := pl.points[0]
	for i, m := range cfg.MTBFs {
		if m > 0 {
			pt = pl.points[i]
			break
		}
	}
	return pl.run(pt, pl.trial(0), rec)
}

// schedPlan is a scheduler sweep resolved against its cluster: the base
// config and shared models after defaults, and every point's identity in
// result order. The sweep's jobs and SchedTraceRun build their runs from
// it alone.
type schedPlan struct {
	c                 *core.Cluster
	cfg               SchedSweepConfig
	base              sched.Config
	sharedInf         *sched.Interference
	minMTBF, maxBurst float64
	points            []SchedPoint // axis values and Trials set, metrics zero
}

// schedTrial holds one trial's inputs, shared by every point of the trial:
// its trace, and its independent board failures (fp) and correlated bursts
// (bp), each sampled at the highest rate a point thins it to.
type schedTrial struct {
	trace  []sched.TraceJob
	fp, bp *sched.Failures
}

func newSchedPlan(c *core.Cluster, cfg SchedSweepConfig) (*schedPlan, error) {
	if c.Hx == nil || c.Grid == nil {
		return nil, fmt.Errorf("runner: scheduler sweeps need an HxMesh-family cluster, got %s", c.Net.Meta.Family)
	}
	if h := cfg.Base.HorizonH; math.IsNaN(h) || math.IsInf(h, 0) || h <= 0 {
		return nil, fmt.Errorf("runner: SchedSweepConfig.Base needs a finite positive HorizonH, got %v", h)
	}
	for _, axis := range []struct {
		name string
		n    int
	}{
		{"MTBFs", len(cfg.MTBFs)}, {"CheckpointsH", len(cfg.CheckpointsH)}, {"Policies", len(cfg.Policies)},
		{"Reservations", len(cfg.Reservations)}, {"BurstRates", len(cfg.BurstRates)},
		{"DefragThresholds", len(cfg.DefragThresholds)}, {"Interferences", len(cfg.Interferences)},
		{"Elastics", len(cfg.Elastics)}, {"Preempts", len(cfg.Preempts)},
	} {
		if axis.n == 0 {
			return nil, fmt.Errorf("runner: scheduler sweep axis %s is empty; every axis needs at least one value", axis.name)
		}
	}
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("runner: scheduler sweep needs Trials of at least 1, got %d", cfg.Trials)
	}
	pl := &schedPlan{c: c, cfg: cfg, base: cfg.Base}
	pl.base.Slowdown = cfg.slowdown(c)
	// The failure process is sampled once per trial at the shortest
	// positive MTBF and thinned per point (nested sets), and the burst
	// process at the highest rate.
	for _, m := range cfg.MTBFs {
		if m > 0 && (pl.minMTBF == 0 || m < pl.minMTBF) {
			pl.minMTBF = m
		}
	}
	for _, r := range cfg.BurstRates {
		pl.maxBurst = max(pl.maxBurst, r)
	}
	// A single contention model (with its memoized joint solves) is shared
	// by every interference-on point; its caches never affect results.
	pl.sharedInf = cfg.Base.Interference
	if pl.sharedInf == nil {
		pl.sharedInf = &sched.Interference{BoardA: c.Hx.Cfg.A, BoardB: c.Hx.Cfg.B}
	}

	for _, policy := range cfg.Policies {
		for _, ckpt := range cfg.CheckpointsH {
			for _, res := range cfg.Reservations {
				for _, defrag := range cfg.DefragThresholds {
					for _, inf := range cfg.Interferences {
						for _, ela := range cfg.Elastics {
							for _, pre := range cfg.Preempts {
								for _, rate := range cfg.BurstRates {
									for _, mtbf := range cfg.MTBFs {
										pl.points = append(pl.points, SchedPoint{
											Policy: policy, CheckpointH: ckpt, Reservation: res,
											BurstRate: rate, DefragThreshold: defrag,
											Interference: inf, Elastic: ela, Preempt: pre,
											MTBFh: mtbf, Trials: cfg.Trials,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pl, nil
}

// trial derives trial tr's inputs from cfg.Seed alone: its trace, and both
// failure processes sampled once at their highest rate, so that thinning
// them per point nests each trial's failure sets along the MTBF and burst
// axes.
func (pl *schedPlan) trial(tr int) *schedTrial {
	seed := JobSeed(pl.cfg.Seed, tr)
	in := &schedTrial{trace: pl.cfg.FixedTrace}
	if in.trace == nil {
		in.trace = sched.Synthetic(pl.cfg.Trace, seed)
	}
	if pl.minMTBF > 0 {
		in.fp = sched.NewFailures(sched.BoardSequence(pl.c.Hx, seed), pl.base.HorizonH, pl.failRate(pl.minMTBF), seed)
	}
	if pl.maxBurst > 0 {
		in.bp = sched.NewBursts(pl.c.Grid.X, pl.c.Grid.Y, pl.cfg.Burst, pl.base.HorizonH, pl.maxBurst, seed)
	}
	return in
}

// failRate is the grid's aggregate board-failure rate at a per-board MTBF
// of mtbfH hours.
func (pl *schedPlan) failRate(mtbfH float64) float64 {
	return float64(pl.c.Grid.X*pl.c.Grid.Y) / mtbfH
}

// run simulates point pt on one trial's inputs; a non-nil rec records it.
func (pl *schedPlan) run(pt SchedPoint, in *schedTrial, rec *obs.Recorder) (*sched.Metrics, error) {
	runCfg := pl.base
	runCfg.Policy, runCfg.CheckpointH = pt.Policy, pt.CheckpointH
	runCfg.Reservation, runCfg.DefragThreshold = pt.Reservation, pt.DefragThreshold
	runCfg.Interference = nil
	if pt.Interference {
		runCfg.Interference = pl.sharedInf
	}
	runCfg.Elastic, runCfg.Preempt = pt.Elastic, pt.Preempt
	if rec != nil {
		runCfg.Trace = rec
	}
	var fails []sched.FailEvent
	if pt.MTBFh > 0 && in.fp != nil {
		fails = in.fp.Thin(pl.failRate(pt.MTBFh))
	}
	if pt.BurstRate > 0 && in.bp != nil {
		fails = sched.MergeFailures(fails, in.bp.Thin(pt.BurstRate))
	}
	return sched.Run(pl.c.Grid.X, pl.c.Grid.Y, in.trace, fails, runCfg)
}

// flushSchedDecisions publishes one scheduler run's decision counts as
// type-labeled counters (no-op when observability is off).
func (p *Pool) flushSchedDecisions(m *sched.Metrics) {
	reg := p.obsReg
	if reg == nil {
		return
	}
	const help = "scheduler decisions by type, summed over sweep runs"
	add := func(typ string, n int) {
		reg.Counter("sched_decisions_total", `type="`+typ+`"`, help).Add(int64(n))
	}
	add("arrived", m.Arrived)
	add("completed", m.Completed)
	add("evicted", m.Evictions)
	add("rejected", m.Rejected)
	add("failure", m.Failures)
	add("repair", m.Repairs)
	add("reservation", m.Reservations)
	add("backfill", m.Backfills)
	add("defrag", m.Defrags)
	add("migration", m.Migrations)
	add("restretch", m.Restretches)
	add("shrink", m.Shrinks)
	add("regrow", m.Regrows)
	add("preemption", m.Preemptions)
}
