// Command hxsim runs the paper's microbenchmarks (§V-A) on any Table II
// topology: alltoall global bandwidth (Fig. 11 / Table II), random
// permutation bandwidth distributions (Fig. 12), and ring/torus allreduce
// (Figs. 13, 17 / Table II). Packet-level sweeps are submitted to the
// worker-pool experiment runner, so shift iterations and repeated
// permutations run concurrently on -parallel workers with deterministic
// results.
//
// Usage:
//
//	hxsim -topo hx2mesh -size tiny -pattern alltoall -bytes 262144
//	hxsim -topo fattree -size small -pattern allreduce
//	hxsim -topo hx4mesh -size tiny -pattern permutation -credit -parallel 8
//
// Degraded fabrics (§III-E): -fail-links fails a fraction of the cables
// and -fail-boards powers off whole boards (HxMesh only), both seeded by
// -fail-seed; every pattern then measures the degraded cluster. The
// resilience pattern sweeps the link-failure fraction from zero up to
// -fail-links (default 0.2) — on top of -fail-boards dead boards — and
// reports delivered bandwidth and makespan per point:
//
//	hxsim -topo hx2mesh -size tiny -pattern resilience -trials 4
//	hxsim -topo hx2mesh -size tiny -pattern alltoall -fail-links 0.1 -fail-seed 3
//
// Sizes: tiny (≈64 accels, packet-level), small (≈1k, flow-level where
// needed), large (≈16k, flow-level/analytic only). At -size large the
// alltoall pattern runs entirely on the flow path: the routing table is
// warmed in parallel and the per-shift max-min solves fan out on the
// worker pool, so the paper's headline 16,384-accelerator global-bandwidth
// numbers come back in seconds instead of SST core-hours:
//
//	hxsim -topo hx2mesh -size large -pattern alltoall -shifts 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"hammingmesh/internal/core"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/runner"
)

func main() {
	topoName := flag.String("topo", "hx2mesh", "topology name (fattree, fattree50, fattree75, dragonfly, hyperx, hx2mesh, hx4mesh, torus)")
	size := flag.String("size", "tiny", "cluster size: tiny, small, large")
	pattern := flag.String("pattern", "alltoall", "traffic pattern: alltoall, permutation, allreduce, resilience")
	bytes := flag.Int64("bytes", 256<<10, "bytes per flow / per peer")
	shifts := flag.Int("shifts", 8, "sampled shift iterations for alltoall")
	perms := flag.Int("perms", 1, "sampled permutations for the permutation pattern")
	seed := flag.Int64("seed", 1, "random seed")
	credit := flag.Bool("credit", false, "use credit-based flow control instead of ideal buffers")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for experiment sweeps")
	simShards := flag.String("sim-shards", "1", "shards of the parallel packet engine per simulation (results are shard-count invariant; auto = GOMAXPROCS)")
	failLinks := flag.Float64("fail-links", 0, "fraction of cables to fail (resilience: sweep upper bound, default 0.2)")
	failBoards := flag.Int("fail-boards", 0, "number of whole boards to fail (HxMesh families)")
	failSeed := flag.Int64("fail-seed", 1, "seed of the fault samplers")
	trials := flag.Int("trials", 3, "seeded fault trials per resilience point")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON flight recording of one representative packet simulation to this file (open in Perfetto)")
	journalDir := flag.String("journal", "", "checkpoint directory for the resilience sweep: completed points are journaled crash-safely and rerunning the same command resumes")
	journalCrash := flag.String("journal-crash", "", "crash-injection plan <point>:<n> — die mid-write at that journal boundary (testing; see internal/journal)")
	flag.Parse()
	// NaN fails every comparison, so it is refused along with the
	// out-of-range values.
	for _, v := range []struct {
		flag string
		val  any
		ok   bool
		want string
	}{
		{"-bytes", *bytes, *bytes >= 1, "at least 1"},
		{"-shifts", *shifts, *shifts >= 1, "at least 1"},
		{"-perms", *perms, *perms >= 1, "at least 1"},
		{"-trials", *trials, *trials >= 1, "at least 1"},
		{"-fail-links", *failLinks, *failLinks >= 0 && *failLinks < 1, "a fraction in [0, 1)"},
		{"-fail-boards", *failBoards, *failBoards >= 0, "at least 0"},
	} {
		if !v.ok {
			fmt.Fprintf(os.Stderr, "hxsim: bad %s %v: want %s\n", v.flag, v.val, v.want)
			os.Exit(2)
		}
	}

	pool := runner.New(*parallel)
	c, err := pool.Cluster(*topoName, core.ClusterSize(*size))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("topology %s (%s): %d endpoints, %d switches/plane, diameter %d, cost %.2f M$ (%d workers)\n",
		*topoName, *size, c.Net.NumEndpoints(), c.Net.NumSwitches(), c.Diameter(), c.CostMUSD(), pool.Workers())

	cfg := netsim.DefaultConfig()
	cfg.Seed = *seed
	if *credit {
		cfg.Mode = netsim.CreditFC
	}
	if *simShards == "auto" {
		cfg.Shards = runtime.GOMAXPROCS(0)
	} else if n, err := strconv.Atoi(*simShards); err == nil && n >= 1 {
		cfg.Shards = n
	} else {
		fmt.Fprintf(os.Stderr, "invalid -sim-shards %q (want a positive integer or auto)\n", *simShards)
		os.Exit(2)
	}
	if *traceOut != "" {
		// Deferred so the recording also happens on the resilience
		// pattern's early return, against the final (possibly degraded)
		// cluster view. The traced run is an extra observation pass and
		// alters none of the reported numbers.
		defer func() { writeTrace(c, cfg, *bytes, *traceOut) }()
	}

	if *journalDir != "" && *pattern != "resilience" {
		fmt.Fprintln(os.Stderr, "hxsim: -journal only applies to the resilience sweep")
		os.Exit(2)
	}

	if *pattern == "resilience" {
		fracs := runner.ResilienceFracs(*failLinks, runner.DefaultResilienceSteps)
		fp := runner.ResilienceFingerprint(c, cfg, *bytes, fracs, *trials, *shifts, *failSeed, *failBoards)
		pts := runner.RunSweepCLI("hxsim", *journalDir, *journalCrash, fp,
			func(ctx context.Context, ck *runner.Checkpoint) ([]runner.ResiliencePoint, error) {
				return pool.ResilienceSweepJournaled(ctx, c, cfg, *bytes, fracs, *trials, *shifts, *failSeed, *failBoards, ck)
			})
		boardNote := ""
		if *failBoards > 0 {
			boardNote = fmt.Sprintf(", on top of %d dead boards", *failBoards)
		}
		fmt.Printf("resilience sweep (%d trials x %d shifts per point, %d B/peer%s):\n", *trials, *shifts, *bytes, boardNote)
		fmt.Printf("  %-10s %-12s %-18s %-10s %s\n", "fail-frac", "links-down", "share-of-inject", "worst", "makespan")
		for _, p := range pts {
			fmt.Printf("  %-10.3f %-12.1f %-18s %-10s %.0f ns\n",
				p.FailFrac, p.FailedLinks,
				fmt.Sprintf("%.2f%%", 100*p.Share), fmt.Sprintf("%.2f%%", 100*p.MinShare), p.Makespan)
		}
		return
	}

	// Fixed fault scenario for the other patterns: the degraded cluster
	// view recomputes routing around the failures; dead boards drop out of
	// the traffic and the allocator.
	if *failLinks > 0 || *failBoards > 0 {
		fs, err := c.SampleFaults(*failLinks, *failBoards, *failSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		c = c.WithFaults(fs)
		fmt.Printf("degraded fabric: %v, %d/%d endpoints alive\n",
			fs, len(c.AliveEndpoints()), c.Comp.NumEndpoints())
	}

	switch *pattern {
	case "alltoall":
		// Flow-level estimate (fast, pooled across workers — the only
		// tractable path at -size large) plus packet-level on tiny systems.
		shareFlow, err := pool.AlltoallFlowShare(c, c.FlowConfig(uint64(*seed)), *shifts, uint64(*seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("alltoall global bandwidth share (flow-level, %d shifts on %d workers): %.1f%% of injection\n",
			*shifts, pool.Workers(), 100*shareFlow)
		if *size == string(core.Tiny) {
			sharePkt, err := pool.AlltoallPacketShare(c, cfg, *bytes, *shifts, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("alltoall global bandwidth share (packet-level, %d B/peer): %.1f%%\n", *bytes, 100*sharePkt)
		}
	case "permutation":
		bws, err := pool.PermutationSweepGBps(c, cfg, *bytes, *perms, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := runner.SummarizePermutation(bws)
		fmt.Printf("permutation receive bandwidth per endpoint [GB/s]: min=%.1f p25=%.1f median=%.1f p75=%.1f max=%.1f mean=%.1f\n",
			st.Min, st.P25, st.P50, st.P75, st.Max, st.Mean)
	case "allreduce":
		share, err := c.AllreduceShare(*bytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("ring allreduce bandwidth: %.1f%% of the theoretical optimum (inj/2)\n", 100*share)
	default:
		fmt.Fprintf(os.Stderr, "unknown pattern %q\n", *pattern)
		os.Exit(1)
	}
}

// writeTrace records one representative single-shift alltoall packet
// simulation into a fresh flight recorder and writes it as Chrome
// trace-event JSON: per-link transmit spans, and with cfg.Shards > 1 the
// shard window lanes and lookahead barriers.
func writeTrace(c *core.Cluster, cfg netsim.Config, bytes int64, path string) {
	rec := obs.NewRecorder(0)
	cfg.Trace = rec
	eps := c.AliveEndpoints()
	if _, err := netsim.New(c.Comp, c.Table, cfg).Run(netsim.ShiftFlows(eps, 1, bytes)); err != nil {
		fmt.Fprintf(os.Stderr, "trace run: %v\n", err)
		os.Exit(1)
	}
	if err := rec.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("trace: %d events (%d dropped) -> %s (open in Perfetto / chrome://tracing)\n",
		rec.Len(), rec.Dropped(), path)
}
