package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"hammingmesh/internal/collective"
	"hammingmesh/internal/core"
	"hammingmesh/internal/journal"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/sched"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
	"hammingmesh/internal/workload"
)

// The step constructors below pair each CLI invocation with an in-process
// mirror of what that CLI does (cmd/hxsim, cmd/hxalloc), calling the same
// layer functions in the same order under spans. Each mirror returns the
// result lines the CLI prints, formatted as the CLI formats them, so a
// traced replay is checked against the end-to-end run it explains.

// replayer is the state of one traced replay.
type replayer struct {
	o      *options
	t      *tracer
	reg    *obs.Registry      // counters of the end-to-end-equivalent work
	counts map[string]float64 // per-layer counts not kept by reg
}

func (o *options) newReplayer() *replayer {
	return &replayer{o: o, t: newTracer(), reg: obs.NewRegistry(), counts: map[string]float64{}}
}

// pool is a fresh pool like the one a CLI process creates, instrumented.
func (rp *replayer) pool(seed int64) *runner.Pool {
	p := runner.NewSeeded(rp.o.workers, seed)
	p.EnableObs(rp.reg)
	return p
}

// built spans the simcore compile of a freshly built cluster (re-measured
// on the same network, since core builds and compiles in one call) and
// optionally warms its routing table for every endpoint destination, as
// the flow path does up front and the packet engine does lazily.
func (rp *replayer) built(name string, c *core.Cluster, warm bool) {
	rp.t.span("simcore", "simcore.Compile "+name, func() error { simcore.Compile(c.Net); return nil }, "simcore.compile_s")
	if warm {
		rp.t.span("routing", "Table.PrecomputeParallel "+name, func() error {
			c.Table.PrecomputeParallel(c.AliveEndpoints(), rp.o.workers)
			return nil
		}, "routing.warm_s")
	}
}

// cluster builds a Table II cluster as a CLI process does.
func (rp *replayer) cluster(name string, size core.ClusterSize) (*core.Cluster, error) {
	var c *core.Cluster
	_, err := rp.t.span("core", "core.NewByName "+name+"/"+string(size), func() (err error) {
		c, err = core.NewByName(name, size)
		return err
	}, "core.build_s")
	if err != nil {
		return nil, err
	}
	rp.built(name, c, true)
	return c, nil
}

// tableMB adds a cluster's routing-table footprint after a step used it.
func (rp *replayer) tableMB(c *core.Cluster) {
	rp.counts["routing.table_mb"] += float64(c.Table.MemoryBytes()) / 1e6
}

// checkpoint opens a fresh journal the way the CLIs' -journal does
// (fsync'd appends), counting into the replay's registry.
func (rp *replayer) checkpoint(fingerprint string) (*runner.Checkpoint, error) {
	dir, err := rp.o.mkdir("journal")
	if err != nil {
		return nil, err
	}
	return runner.OpenCheckpoint(dir, fingerprint, journal.Options{Obs: rp.reg})
}

// hxallocCDF is `hxalloc -cdf` (Fig. 7).
func hxallocCDF() step {
	return step{
		name: "fig7_board_cdf", bin: "hxalloc", args: []string{"-cdf"},
		replay: func(rp *replayer) ([]string, error) {
			var lines []string
			rp.t.span("alloc", "workload.BoardCDF", func() error {
				d := workload.AlibabaLike()
				for i, c := range d.BoardCDF() {
					lines = append(lines, fmt.Sprintf("%17d  %7.4f   %.3f", d.Sizes[i], d.Probs[i], c))
				}
				lines = append(lines, fmt.Sprintf("boards allocated to jobs < 100 boards: %.0f%% (paper: 39%%)",
					100*d.BoardShareBelow(400)))
				return nil
			})
			return lines, nil
		},
	}
}

// hxallocFig8 is `hxalloc -grid GxG -mixes M` (Fig. 8).
func hxallocFig8(grid, mixes int, seed int64, workers int) step {
	return step{
		name: "fig8_alloc", bin: "hxalloc",
		args: []string{"-grid", fmt.Sprintf("%dx%d", grid, grid), "-mixes", itoa(mixes),
			"-seed", itoa(seed), "-parallel", itoa(workers)},
		replay: func(rp *replayer) ([]string, error) {
			pool := rp.pool(seed)
			d := workload.AlibabaLike()
			var lines []string
			_, err := rp.t.span("alloc", "Pool.Run workload.RunMix", func() error {
				for _, h := range workload.Fig8Stacks() {
					jobs := make([]runner.Job, mixes)
					for m := range jobs {
						jobs[m] = runner.Job{Name: fmt.Sprintf("%s/mix%d", h.Name, m), Run: func(ctx *runner.Ctx) (any, error) {
							sampler := workload.NewSampler(d, ctx.Seed)
							rng := rand.New(rand.NewSource(ctx.Seed + 99))
							return workload.RunMix(grid, grid, sampler.Mix(grid*grid, 4), h, 0, rng), nil
						}}
					}
					results := pool.Run(jobs)
					if err := runner.FirstErr(results); err != nil {
						return err
					}
					utils := make([]float64, 0, mixes)
					a2a, ar := 0.0, 0.0
					for _, res := range results {
						u := res.Value.(workload.UtilizationResult)
						utils = append(utils, u.Utilization)
						a2a += u.UpperA2A
						ar += u.UpperAllred
					}
					s := workload.Summarize(utils)
					lines = append(lines, fmt.Sprintf("%-42s %5.1f%% %5.1f%% %5.1f%% | %8.1f%% %8.1f%%",
						h.Name, 100*s.Mean, 100*s.Median, 100*s.P99, 100*a2a/float64(mixes), 100*ar/float64(mixes)))
				}
				return nil
			}, "alloc.mixes_s")
			return lines, err
		},
	}
}

func hxsimArgs(topo string, size core.ClusterSize, pattern string, seed int64, workers int, extra ...string) []string {
	return append([]string{"-topo", topo, "-size", string(size), "-pattern", pattern,
		"-seed", itoa(seed), "-parallel", itoa(workers)}, extra...)
}

// hxsimAlltoall is `hxsim -pattern alltoall` (Fig. 11, Table II): the
// flow-level share, plus the packet-level one on tiny clusters.
func hxsimAlltoall(name, topo string, size core.ClusterSize, shifts int, seed int64, workers int) step {
	const bytes = 65536
	return step{
		name: name, bin: "hxsim",
		args: hxsimArgs(topo, size, "alltoall", seed, workers, "-shifts", itoa(shifts), "-bytes", itoa(bytes)),
		replay: func(rp *replayer) ([]string, error) {
			pool := rp.pool(seed)
			c, err := rp.cluster(topo, size)
			if err != nil {
				return nil, err
			}
			defer rp.tableMB(c)
			var share float64
			if _, err := rp.t.span("flowsim", "Pool.AlltoallFlowShare "+topo, func() (err error) {
				share, err = pool.AlltoallFlowShare(c, c.FlowConfig(uint64(seed)), shifts, uint64(seed))
				return err
			}, "flowsim.alltoall_s"); err != nil {
				return nil, err
			}
			lines := []string{fmt.Sprintf("alltoall global bandwidth share (flow-level, %d shifts on %d workers): %.1f%% of injection",
				shifts, workers, 100*share)}
			if size != core.Tiny {
				return lines, nil
			}
			cfg := netsim.DefaultConfig()
			cfg.Seed = seed
			_, err = rp.t.span("netsim", "Pool.AlltoallPacketShare "+topo, func() (err error) {
				share, err = pool.AlltoallPacketShare(c, cfg, bytes, shifts, seed)
				return err
			}, "netsim.run_s")
			return append(lines, fmt.Sprintf("alltoall global bandwidth share (packet-level, %d B/peer): %.1f%%", bytes, 100*share)), err
		},
	}
}

// hxsimPermutation is `hxsim -pattern permutation -perms 4` (Fig. 12).
func hxsimPermutation(name string, size core.ClusterSize, seed int64, workers int) step {
	const bytes, perms = 65536, 4
	return step{
		name: name, bin: "hxsim",
		args: hxsimArgs("hx2mesh", size, "permutation", seed, workers, "-perms", itoa(perms), "-bytes", itoa(bytes)),
		replay: func(rp *replayer) ([]string, error) {
			pool := rp.pool(seed)
			c, err := rp.cluster("hx2mesh", size)
			if err != nil {
				return nil, err
			}
			defer rp.tableMB(c)
			cfg := netsim.DefaultConfig()
			cfg.Seed = seed
			var bws []float64
			if _, err := rp.t.span("netsim", "Pool.PermutationSweepGBps", func() (err error) {
				bws, err = pool.PermutationSweepGBps(c, cfg, bytes, perms, seed)
				return err
			}, "netsim.run_s"); err != nil {
				return nil, err
			}
			sort.Float64s(bws)
			mean := 0.0
			for _, b := range bws {
				mean += b
			}
			mean /= float64(len(bws))
			return []string{fmt.Sprintf("permutation receive bandwidth per endpoint [GB/s]: min=%.1f p25=%.1f median=%.1f p75=%.1f max=%.1f mean=%.1f",
				bws[0], bws[len(bws)/4], bws[len(bws)/2], bws[3*len(bws)/4], bws[len(bws)-1], mean)}, nil
		},
	}
}

// hxsimAllreduce is `hxsim -pattern allreduce` (Fig. 13): one serial
// packet-level ring-allreduce run. The replay also re-runs it on the
// sharded engine (one shard per CPU) and on the reference heap queue, and
// requires both to give the bit-identical share.
func hxsimAllreduce(name string, size core.ClusterSize, seed int64, workers int) step {
	const bytes = 262144
	return step{
		name: name, bin: "hxsim",
		args: hxsimArgs("hx2mesh", size, "allreduce", seed, workers, "-bytes", itoa(bytes)),
		replay: func(rp *replayer) ([]string, error) {
			c, err := rp.cluster("hx2mesh", size)
			if err != nil {
				return nil, err
			}
			defer rp.tableMB(c)
			var rings [][]topo.NodeID
			if _, err := rp.t.span("collective", "Cluster.AllreduceRings", func() (err error) {
				rings, err = c.AllreduceRings()
				return err
			}, "collective.rings_s"); err != nil {
				return nil, err
			}
			run := func(cfg netsim.Config) (float64, error) {
				return collective.MeasureAllreduceShare(c.Comp, c.Table, rings, bytes, cfg, c.SimInjectionGBps())
			}
			var share float64
			cfg := netsim.DefaultConfig()
			cfg.Metrics = rp.reg
			if _, err := rp.t.span("netsim", "collective.MeasureAllreduceShare", func() (err error) {
				share, err = run(cfg)
				return err
			}, "netsim.run_s"); err != nil {
				return nil, err
			}
			probeReg := obs.NewRegistry()
			shards := netsim.DefaultConfig()
			shards.Shards, shards.Metrics = runtime.NumCPU(), probeReg
			heap := netsim.DefaultConfig()
			heap.Queue = netsim.QueueHeap
			for _, alt := range []struct {
				label, metric string
				cfg           netsim.Config
			}{{fmt.Sprintf("shards=%d", shards.Shards), "netsim.allreduce_shards_s", shards}, {"queue=heap", "netsim.allreduce_heap_s", heap}} {
				var got float64
				if _, err := rp.t.probe("netsim", "collective.MeasureAllreduceShare "+alt.label, func() (err error) {
					got, err = run(alt.cfg)
					return err
				}, alt.metric); err != nil {
					return nil, err
				}
				if got != share {
					return nil, fmt.Errorf("allreduce share with %s is %v, serial calendar engine gave %v", alt.label, got, share)
				}
			}
			rp.counts["netsim.window_stalls"] += render(probeReg).sum("netsim_window_stalls_total")
			return []string{fmt.Sprintf("ring allreduce bandwidth: %.1f%% of the theoretical optimum (inj/2)", 100*share)}, nil
		},
	}
}

// hxsimResilience is `hxsim -pattern resilience -journal DIR` (§III-E).
// The replay runs the journaled sweep the CLI runs and an unjournaled
// twin; the gap between them is the journal's overhead.
func hxsimResilience(name string, size core.ClusterSize, seed int64, workers int) step {
	const bytes, trials, shifts, steps = 65536, 3, 4, 5
	return step{
		name: name, bin: "hxsim", journal: true,
		args: hxsimArgs("hx2mesh", size, "resilience", seed, workers,
			"-trials", itoa(trials), "-shifts", itoa(shifts), "-bytes", itoa(bytes)),
		replay: func(rp *replayer) ([]string, error) {
			pool := rp.pool(seed)
			c, err := rp.cluster("hx2mesh", size)
			if err != nil {
				return nil, err
			}
			defer rp.tableMB(c)
			fracs := make([]float64, steps)
			for i := range fracs {
				fracs[i] = 0.2 * float64(i) / (steps - 1)
			}
			cfg := netsim.DefaultConfig()
			cfg.Seed = seed
			ck, err := rp.checkpoint(runner.ResilienceFingerprint(c, cfg, bytes, fracs, trials, shifts, 1, 0))
			if err != nil {
				return nil, err
			}
			var pts []runner.ResiliencePoint
			tJ, err := rp.t.span("journal", "Pool.ResilienceSweepJournaled", func() (err error) {
				pts, err = pool.ResilienceSweepJournaled(context.Background(), c, cfg, bytes, fracs, trials, shifts, 1, 0, ck)
				return err
			})
			if cerr := ck.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			tU, err := rp.t.probe("netsim", "Pool.ResilienceSweep", func() error {
				_, err := runner.NewSeeded(rp.o.workers, seed).ResilienceSweep(c, cfg, bytes, fracs, trials, shifts, 1, 0)
				return err
			}, "netsim.run_s")
			if err != nil {
				return nil, err
			}
			rp.t.sums["journal.overhead_s"] += tJ - tU
			lines := []string{fmt.Sprintf("resilience sweep (%d trials x %d shifts per point, %d B/peer):", trials, shifts, bytes)}
			for _, p := range pts {
				lines = append(lines, fmt.Sprintf("  %-10.3f %-12.1f %-18s %-10s %.0f ns",
					p.FailFrac, p.FailedLinks, fmt.Sprintf("%.2f%%", 100*p.Share), fmt.Sprintf("%.2f%%", 100*p.MinShare), p.Makespan))
			}
			return lines, nil
		},
	}
}

// schedArgs are the hxalloc -mode sched flags a workload sets; zero and
// empty fields keep hxalloc's defaults.
type schedArgs struct {
	grid, jobs, trials                       int
	horizon, arrival, service, commfrac      float64
	mtbfs, ckpts, policies                   string
	reserve, interference, elastic, priority string
	switchGroup                              int
	taper                                    float64
	seed                                     int64
	workers                                  int
}

func (a schedArgs) cliArgs() []string {
	args := []string{"-mode", "sched", "-grid", fmt.Sprintf("%dx%d", a.grid, a.grid), "-jobs", itoa(a.jobs),
		"-horizon", ftoa(a.horizon), "-mtbf", a.mtbfs, "-ckpt", a.ckpts, "-policies", a.policies,
		"-trials", itoa(a.trials), "-seed", itoa(a.seed), "-parallel", itoa(a.workers)}
	for _, f := range []struct{ flag, v string }{{"-reserve", a.reserve}, {"-interference", a.interference},
		{"-elastic", a.elastic}, {"-priority", a.priority}} {
		if f.v != "" {
			args = append(args, f.flag, f.v)
		}
	}
	for _, f := range []struct {
		flag string
		v    float64
	}{{"-arrival", a.arrival}, {"-service", a.service}, {"-commfrac", a.commfrac},
		{"-switch-group", float64(a.switchGroup)}, {"-taper", a.taper}} {
		if f.v != 0 {
			args = append(args, f.flag, ftoa(f.v))
		}
	}
	return args
}

// sweepConfig mirrors cmd/hxalloc's runSched: the same defaults, the same
// axis parsing, a fresh contention model per call.
func (a schedArgs) sweepConfig() (runner.SchedSweepConfig, error) {
	orDefault := func(v, def string) string {
		if v == "" {
			return def
		}
		return v
	}
	bools := func(s string) ([]bool, bool) {
		var out []bool
		anyOn := false
		for _, f := range strings.Split(s, ",") {
			out = append(out, f != "0")
			anyOn = anyOn || f != "0"
		}
		return out, anyOn
	}
	floats := func(s string) ([]float64, error) {
		var out []float64
		for _, f := range strings.Split(s, ",") {
			var v float64
			if _, err := fmt.Sscan(f, &v); err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	orValue := func(v, def float64) float64 {
		if v == 0 {
			return def
		}
		return v
	}
	group, taper := int(orValue(float64(a.switchGroup), 16)), orValue(a.taper, 1)
	reserves, _ := bools(orDefault(a.reserve, "0"))
	interferences, anyInterference := bools(orDefault(a.interference, "0"))
	elastics, anyElastic := bools(orDefault(a.elastic, "0"))
	priorities, anyPriority := bools(orDefault(a.priority, "0"))
	trace := sched.TraceConfig{Jobs: a.jobs, ArrivalRate: orValue(a.arrival, 4), MeanService: orValue(a.service, 3),
		AccelsPerBoard: 4, MaxBoards: a.grid * a.grid, CommFrac: orValue(a.commfrac, 0.3)}
	if anyElastic {
		trace.ElasticFrac = 0.3
	}
	if anyPriority {
		trace.PriorityFrac = 0.2
	}
	base := sched.Config{HorizonH: a.horizon, RepairH: 10, DefragCostH: 0.1,
		Slowdown: &sched.CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: group}}
	if anyInterference {
		base.Interference = &sched.Interference{BoardA: 2, BoardB: 2, GroupBoards: group, Taper: taper}
	}
	mtbfs, err := floats(a.mtbfs)
	if err != nil {
		return runner.SchedSweepConfig{}, err
	}
	ckpts, err := floats(a.ckpts)
	if err != nil {
		return runner.SchedSweepConfig{}, err
	}
	var policies []sched.Policy
	for _, s := range strings.Split(a.policies, ",") {
		p, err := sched.ParsePolicy(s)
		if err != nil {
			return runner.SchedSweepConfig{}, err
		}
		policies = append(policies, p)
	}
	return runner.SchedSweepConfig{
		Trace: trace, Base: base, MTBFs: mtbfs, CheckpointsH: ckpts, Policies: policies,
		Reservations: reserves, BurstRates: []float64{0}, Burst: sched.BurstShape{W: 4, H: 1},
		DefragThresholds: []float64{0}, Interferences: interferences, Elastics: elastics,
		Preempts: priorities, Trials: a.trials, Seed: a.seed,
	}, nil
}

// hxallocSched is `hxalloc -mode sched -journal DIR` (§V). The replay runs
// the journaled sweep the CLI runs, then unjournaled twins split along the
// interference axis: their gap is the joint contention pricing
// (flowsim.TenantShares) and the journaled run's excess is the journal's
// overhead.
func hxallocSched(name string, a schedArgs) step {
	return step{
		name: name, bin: "hxalloc", journal: true, args: a.cliArgs(),
		replay: func(rp *replayer) ([]string, error) {
			var c *core.Cluster
			rp.t.span("core", fmt.Sprintf("core.NewHxMesh 2x2 boards %dx%d", a.grid, a.grid), func() error {
				c = core.NewHxMesh(2, 2, a.grid, a.grid)
				return nil
			}, "core.build_s")
			rp.built("hx2mesh", c, false)
			cfg, err := a.sweepConfig()
			if err != nil {
				return nil, err
			}
			ck, err := rp.checkpoint(cfg.Fingerprint(c))
			if err != nil {
				return nil, err
			}
			var pts []runner.SchedPoint
			tJ, err := rp.t.span("journal", "Pool.SchedSweepJournaled", func() (err error) {
				pts, err = rp.pool(a.seed).SchedSweepJournaled(context.Background(), c, cfg, ck)
				return err
			})
			if cerr := ck.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			if in := cfg.Base.Interference; in != nil {
				st := in.Stats()
				rp.counts["flowsim.tenant_solves"] += float64(st.Solves)
				rp.counts["flowsim.tenant_memo_hits"] += float64(st.MemoHits)
			}

			times := map[bool]float64{}
			for _, on := range cfg.Interferences {
				twin, err := a.sweepConfig()
				if err != nil {
					return nil, err
				}
				twin.Interferences = []bool{on}
				if times[on], err = rp.t.probe("sched", fmt.Sprintf("Pool.SchedSweep interference=%v", on), func() error {
					_, err := runner.NewSeeded(rp.o.workers, a.seed).SchedSweep(c, twin)
					return err
				}, "sched.sweep_s"); err != nil {
					return nil, err
				}
			}
			if len(times) == 2 {
				rp.t.sums["flowsim.tenant_s"] += times[true] - times[false]
			}
			rp.t.sums["journal.overhead_s"] += tJ - times[true] - times[false]
			return schedLines(pts), nil
		},
	}
}

// schedLines formats sweep points as hxalloc prints its table rows.
func schedLines(pts []runner.SchedPoint) []string {
	onOff := map[bool]string{true: "on", false: "off"}
	lines := make([]string, len(pts))
	for i, pt := range pts {
		mtbf := "inf"
		if pt.MTBFh > 0 {
			mtbf = fmt.Sprintf("%g", pt.MTBFh)
		}
		lines[i] = fmt.Sprintf("%-9s %6g %3s %6g %3s %3s %3s %6g %7s | %7.1f%% %7.1f%% %5.1f%% | %7.2f %7.2f %8.2f | %6.0f %6.1f %6.1f %6.1f %6.1f",
			pt.Policy, pt.CheckpointH, onOff[pt.Reservation], pt.DefragThreshold,
			onOff[pt.Interference], onOff[pt.Elastic], onOff[pt.Preempt], pt.BurstRate, mtbf,
			100*pt.Goodput, 100*pt.Utilization, 100*pt.LostFrac,
			pt.WaitP50, pt.WaitP99, pt.MaxWaitLarge, pt.Completed, pt.Evictions, pt.Migrations,
			pt.Restretches, pt.Shrinks+pt.Regrows)
	}
	return lines
}
