// Package hammingmesh_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation. Those benchmarks are named
// after the table or figure they regenerate (BenchmarkTable2GlobalBW,
// BenchmarkFig12Permutation, ...) and print its rows/series once, beside
// the paper's values where the paper states them; the rest time the
// simulators. Run with
//
//	go test -bench=. -benchmem
//
// The printouts run the same internal/runner definitions as the cmd/
// tools and hxd (the allocation study, the permutation statistics, the
// pooled flow-level alltoall), so a row prints what the CLI prints for the
// same inputs; each benchmark names its CLI equivalent. Heavy experiments
// use the small-cluster (≈1k accelerator) configurations with sampled
// iterations; the cmd/ tools expose the full parameter space.
package hammingmesh_test

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/analysis"
	"hammingmesh/internal/collective"
	"hammingmesh/internal/core"
	"hammingmesh/internal/cost"
	"hammingmesh/internal/dnn"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
	"hammingmesh/internal/workload"
)

var printOnce sync.Map

// table2 holds the paper's Table II bandwidth columns, in percent: global
// (alltoall) bandwidth as a share of injection, and allreduce bandwidth as
// a share of the optimum (0 where no allreduce benchmark measures the
// topology).
var table2 = map[string]struct{ globalBW, allreduceBW float64 }{
	"fattree": {99.9, 98.9}, "fattree50": {51.2, 0}, "fattree75": {25.7, 0},
	"dragonfly": {62.9, 0}, "hyperx": {91.6, 0},
	"hx2mesh": {25.4, 98.3}, "hx4mesh": {11.3, 98.4}, "torus": {2.0, 98.1},
}

func once(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// BenchmarkTable2Cost regenerates the cost column of Table II for both
// cluster sizes from the Appendix C inventories.
func BenchmarkTable2Cost(b *testing.B) {
	prices := cost.PaperPrices()
	for i := 0; i < b.N; i++ {
		small, large := cost.SmallCluster(), cost.LargeCluster()
		once("t2cost", func() {
			fmt.Println("\nTable II — cost [M$] (small / large; paper in parens)")
			for j, inv := range small {
				pw := cost.TableIICostMUSD[inv.Name]
				fmt.Printf("  %-22s %7.2f (%5.1f)   %7.1f (%5.1f)\n",
					inv.Name, inv.CostMUSD(prices), pw[0], large[j].CostMUSD(prices), pw[1])
			}
		})
	}
}

// BenchmarkTable2Diameter regenerates the diameter column: the paper's
// closed forms plus BFS ground truth on the built small-cluster graphs.
func BenchmarkTable2Diameter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := []struct {
			name        string
			closedSmall int
			closedLarge int
			graph       func() int
		}{
			{"nonblocking fat tree", analysis.FatTreeDiameter(1024, topo.NonblockingTree()),
				analysis.FatTreeDiameter(16384, topo.NonblockingTree()),
				func() int {
					return topo.EndpointDiameter(topo.NewFatTree(1024, topo.NonblockingTree(), topo.DefaultLinkParams()), 32)
				}},
			{"dragonfly", 4, analysis.DragonflyDiameter(32, 17, 16, 30),
				func() int {
					return topo.EndpointDiameter(topo.NewDragonfly(topo.SmallDragonfly(topo.DefaultLinkParams())), 32)
				}},
			{"2D hyperx", analysis.HxMeshDiameter(1, 1, 32, 32), analysis.HxMeshDiameter(1, 1, 128, 128),
				func() int {
					return topo.EndpointDiameter(topo.NewHyperX2D(32, 32, topo.DefaultLinkParams()).Network, 16)
				}},
			{"hx2mesh", analysis.HxMeshDiameter(2, 2, 16, 16), analysis.HxMeshDiameter(2, 2, 64, 64),
				func() int {
					return topo.EndpointDiameter(topo.NewHxMesh(2, 2, 16, 16, topo.DefaultLinkParams()).Network, 16)
				}},
			{"hx4mesh", analysis.HxMeshDiameter(4, 4, 8, 8), analysis.HxMeshDiameter(4, 4, 32, 32),
				func() int {
					return topo.EndpointDiameter(topo.NewHxMesh(4, 4, 8, 8, topo.DefaultLinkParams()).Network, 16)
				}},
			{"2D torus", analysis.TorusDiameter(32, 32), analysis.TorusDiameter(128, 128),
				func() int { return topo.EndpointDiameter(topo.NewTorus2D(32, 32, 2, 2, topo.DefaultLinkParams()), 8) }},
		}
		out := make([][3]int, len(rows))
		for j, r := range rows {
			out[j] = [3]int{r.closedSmall, r.closedLarge, r.graph()}
		}
		once("t2diam", func() {
			fmt.Println("\nTable II — diameter (closed form small/large, BFS on built small graph)")
			for j, r := range rows {
				fmt.Printf("  %-22s %3d / %3d   graph=%d\n", r.name, out[j][0], out[j][1], out[j][2])
			}
		})
	}
}

// BenchmarkTable2GlobalBW regenerates the global (alltoall) bandwidth
// column on the small clusters: the flow level is the pooled estimator of
// `hxsim -size small -pattern alltoall -shifts 2 -seed 9`, the packet level
// 16 concurrent shifts.
func BenchmarkTable2GlobalBW(b *testing.B) {
	for _, name := range core.TopologyNames() {
		b.Run(name, func(b *testing.B) {
			// Built once outside the timed loop: iterations measure the
			// sweeps, and throwaway networks are not pinned per iteration.
			pool := runner.NewSeeded(benchWorkers(), 7)
			c, err := pool.Cluster(name, core.Small)
			if err != nil {
				b.Fatal(err)
			}
			// Packet level uses 16 concurrent shifts (the unsynchronized
			// measurement). HyperX uses the switch-grid construction the
			// paper simulates (topo.NewHyperXDirect); Dragonfly uses UGAL
			// as in the paper's SST runs.
			comp := c.Comp
			if name == "hyperx" {
				comp = simcore.Compile(topo.NewHyperXDirect(32, 32, 4, topo.DefaultLinkParams()))
			}
			cfg := netsim.DefaultConfig()
			if name == "dragonfly" {
				cfg.UGAL = true
			}
			tab := c.Table
			if comp != c.Comp {
				tab = routing.NewTable(comp)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Flow-level serialized shifts (lower bound) ...
				shareFlow, err := pool.AlltoallFlowShare(c, c.FlowConfig(9), 2, 9)
				if err != nil {
					b.Fatal(err)
				}
				sharePkt, err := netsim.AlltoallShareConcurrent(comp, tab, cfg, 32<<10, 16, c.SimInjectionGBps(), 7)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*sharePkt, "%inject")
				once("t2glob-"+name, func() {
					fmt.Printf("  Table II global BW %-10s flow %5.1f%%  packet %5.1f%%  paper %5.1f%%\n",
						name, 100*shareFlow, 100*sharePkt, table2[name].globalBW)
				})
			}
		})
	}
}

// BenchmarkTable2AllreduceBW regenerates the allreduce bandwidth column by
// packet-simulating steady ring traffic on the two Hamiltonian cycles.
func BenchmarkTable2AllreduceBW(b *testing.B) {
	for _, name := range []string{"fattree", "hx2mesh", "hx4mesh", "torus"} {
		b.Run(name, func(b *testing.B) {
			c, err := core.NewByName(name, core.Small)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				share, err := c.AllreduceShare(512 << 10)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*share, "%peak")
				once("t2ar-"+name, func() {
					fmt.Printf("  Table II allreduce %-10s measured %5.1f%%  paper %5.1f%%\n",
						name, 100*share, table2[name].allreduceBW)
				})
			}
		})
	}
}

// BenchmarkFig7JobSizeCDF regenerates the job-size board CDF.
func BenchmarkFig7JobSizeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := workload.AlibabaLike()
		cdf := d.BoardCDF()
		once("fig7", func() {
			fmt.Println("\nFig. 7 — proportion of boards allocated to jobs ≤ size (2x2 boards)")
			for j, s := range d.Sizes {
				fmt.Printf("  %7.1f boards (%4d accels): %5.1f%%\n", float64(s)/4, s, 100*cdf[j])
			}
			fmt.Printf("  below 100 boards: %.0f%% (paper: 39%%)\n", 100*d.BoardShareBelow(400))
		})
	}
}

// BenchmarkFig8Utilization regenerates the system-utilization study on the
// small 16x16 Hx2Mesh across all heuristic stacks: the rows of
// `hxalloc -grid 16x16 -mixes 15` (the paper also varies the cluster;
// cmd/hxalloc exposes that).
func BenchmarkFig8Utilization(b *testing.B) {
	const mixes = 15
	for i := 0; i < b.N; i++ {
		pts := runner.NewSeeded(benchWorkers(), 1).UtilizationSweep(16, 16, 4, mixes, 0, workload.Fig8Stacks())
		once("fig8", func() {
			fmt.Println("\nFig. 8 — system utilization, small 16x16 Hx2Mesh")
			for _, pt := range pts {
				st := pt.Utilization
				fmt.Printf("  %-44s mean %5.1f%%  median %5.1f%%\n", pt.Stack.Name, 100*st.Mean, 100*st.Median)
			}
		})
	}
}

// BenchmarkFig9UpperLayerTraffic regenerates the upper-level fat-tree
// traffic fractions for alltoall and allreduce traffic: the a2a-upper and
// ar-upper columns of `hxalloc -grid 64x64 -mixes 6` and
// `hxalloc -grid 32x32 -board 16 -mixes 6`.
func BenchmarkFig9UpperLayerTraffic(b *testing.B) {
	const mixes = 6
	stacks := []workload.HeuristicStack{
		{Name: "greedy"},
		{Name: "greedy+transpose+aspect+sort+locality", Transpose: true, Aspect: true, Sort: true, Locality: true},
	}
	for i := 0; i < b.N; i++ {
		pool := runner.NewSeeded(benchWorkers(), 1)
		type row struct {
			name    string
			a2a, ar float64
		}
		var rows []row
		for _, cl := range []struct {
			name string
			x, y int
			apb  int
		}{{"large 64x64 Hx2Mesh", 64, 64, 4}, {"large 32x32 Hx4Mesh", 32, 32, 16}} {
			for _, pt := range pool.UtilizationSweep(cl.x, cl.y, cl.apb, mixes, 0, stacks) {
				rows = append(rows, row{cl.name + " / " + pt.Stack.Name, pt.UpperA2APct, pt.UpperAllredPct})
			}
		}
		once("fig9", func() {
			fmt.Println("\nFig. 9 — upper-layer fat-tree traffic (alltoall / allreduce)")
			for _, r := range rows {
				fmt.Printf("  %-64s %5.1f%% / %5.1f%%\n", r.name, r.a2a, r.ar)
			}
			fmt.Println("  (paper: alltoall < 50%, allreduce < 15%, locality < 25% on Hx4Mesh)")
		})
	}
}

// BenchmarkFig10Failures regenerates utilization under random board
// failures on the small clusters: the mean utilization of the
// greedy+transpose+aspect stack without and with sorting, as
// `hxalloc -grid 16x16 -mixes 8 -failures F` (and `-grid 8x8 -board 16`)
// prints it.
func BenchmarkFig10Failures(b *testing.B) {
	const mixes = 8
	stacks := []workload.HeuristicStack{
		{Name: "unsorted", Transpose: true, Aspect: true},
		{Name: "sorted", Transpose: true, Aspect: true, Sort: true},
	}
	for i := 0; i < b.N; i++ {
		pool := runner.NewSeeded(benchWorkers(), 1)
		type point struct {
			cluster  string
			failures int
			mode     string
			util     float64
		}
		var pts []point
		for _, cl := range []struct {
			name string
			x, y int
			apb  int
		}{{"small 16x16 Hx2Mesh", 16, 16, 4}, {"small 8x8 Hx4Mesh", 8, 8, 16}} {
			for _, failures := range []int{0, 10, 20, 40} {
				if failures >= cl.x*cl.y {
					continue
				}
				for _, pt := range pool.UtilizationSweep(cl.x, cl.y, cl.apb, mixes, failures, stacks) {
					pts = append(pts, point{cl.name, failures, pt.Stack.Name, pt.Utilization.Mean})
				}
			}
		}
		once("fig10", func() {
			fmt.Println("\nFig. 10 — utilization of working boards vs failed boards")
			for _, p := range pts {
				fmt.Printf("  %-22s %3d failures %-8s %5.1f%%\n", p.cluster, p.failures, p.mode, 100*p.util)
			}
		})
	}
}

// BenchmarkFig11Alltoall regenerates the alltoall bandwidth vs message
// size curves (small topologies) from the schedule model with Table II's
// sustained shares.
func BenchmarkFig11Alltoall(b *testing.B) {
	sizes := []float64{1 << 10, 16 << 10, 256 << 10, 1 << 20, 16 << 20}
	for i := 0; i < b.N; i++ {
		pr := collective.DefaultParams()
		out := map[string][]float64{}
		for name, paper := range table2 {
			for _, s := range sizes {
				out[name] = append(out[name], collective.AlltoallBandwidth(1024, s, paper.globalBW/100, pr))
			}
		}
		once("fig11", func() {
			fmt.Println("\nFig. 11 — alltoall bandwidth [GB/s per endpoint] vs message size, small topologies")
			fmt.Printf("  %-10s", "topology")
			for _, s := range sizes {
				fmt.Printf(" %8.0fKiB", s/1024)
			}
			fmt.Println()
			names := make([]string, 0, len(out))
			for n := range out {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("  %-10s", n)
				for _, v := range out[n] {
					fmt.Printf(" %11.1f", v)
				}
				fmt.Println()
			}
		})
	}
}

// BenchmarkFig12Permutation regenerates the per-endpoint bandwidth
// distribution under random permutation traffic (packet-level, small
// clusters): the statistics of `hxsim -size small -pattern permutation
// -bytes 65536`.
func BenchmarkFig12Permutation(b *testing.B) {
	for _, name := range []string{"fattree", "hx2mesh", "hx4mesh"} {
		b.Run(name, func(b *testing.B) {
			pool := runner.NewSeeded(benchWorkers(), 1)
			c, err := pool.Cluster(name, core.Small)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// netsim.DefaultConfig's engine seed is hxsim's default -seed.
				bws, err := pool.PermutationSweepGBps(c, netsim.DefaultConfig(), 64<<10, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				st := runner.SummarizePermutation(bws)
				b.ReportMetric(st.Mean, "GB/s")
				once("fig12-"+name, func() {
					fmt.Printf("  Fig. 12 permutation %-10s min %5.1f  p50 %5.1f  max %5.1f  mean %5.1f GB/s\n",
						name, st.Min, st.P50, st.Max, st.Mean)
				})
			}
		})
	}
}

// BenchmarkFig13Allreduce regenerates the large-cluster allreduce
// bandwidth curves: two bidirectional Hamiltonian rings vs the 2D-torus
// algorithm.
func BenchmarkFig13Allreduce(b *testing.B) {
	benchAllreduceCurves(b, "fig13", "Fig. 13 — global allreduce, large cluster (16,384 accelerators)", 16384)
}

// BenchmarkFig17AllreduceSmall is the small-cluster variant (Appendix G).
func BenchmarkFig17AllreduceSmall(b *testing.B) {
	benchAllreduceCurves(b, "fig17", "Fig. 17 — global allreduce, small cluster (1,024 accelerators)", 1024)
}

func benchAllreduceCurves(b *testing.B, key, title string, p int) {
	sizes := []float64{1 << 20, 16 << 20, 256 << 20, 1 << 30, 4 << 30, 16 << 30}
	for i := 0; i < b.N; i++ {
		pr := collective.DefaultParams()
		rings := make([]float64, len(sizes))
		torus := make([]float64, len(sizes))
		for j, s := range sizes {
			rings[j] = collective.AllreduceBandwidth(s, collective.TwoRingsAllreduceTime(p, s, pr))
			torus[j] = collective.AllreduceBandwidth(s, collective.Torus2DAllreduceTime(p, s, pr))
		}
		once(key, func() {
			fmt.Printf("\n%s [GB/s]\n  %-8s", title, "size")
			for _, s := range sizes {
				fmt.Printf(" %9.0fKiB", s/1024)
			}
			fmt.Printf("\n  %-8s", "rings")
			for _, v := range rings {
				fmt.Printf(" %12.1f", v)
			}
			fmt.Printf("\n  %-8s", "torus")
			for _, v := range torus {
				fmt.Printf(" %12.1f", v)
			}
			fmt.Println()
		})
	}
}

// BenchmarkFig6Tapering measures ring-allreduce and alltoall bandwidth on
// an HxMesh whose per-dimension trees are tapered (§III-F): ring traffic
// needs only two ports between neighboring switches, so allreduce holds
// while alltoall drops with the taper.
func BenchmarkFig6Tapering(b *testing.B) {
	for _, taper := range []float64{0, 0.5, 0.75} {
		b.Run(fmt.Sprintf("taper%.0f%%", 100*taper), func(b *testing.B) {
			lp := topo.DefaultLinkParams()
			h := topo.NewHxMeshConfig(topo.HxMeshConfig{
				A: 2, B: 2, X: 40, Y: 4, Taper: taper, LP: lp, // 2x=80 forces trees in x
			})
			r1, r2, err := collective.TwoRingsOnHxMesh(h)
			if err != nil {
				b.Fatal(err)
			}
			comp := simcore.Compile(h.Network)
			tab := routing.NewTable(comp)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				share, err := collective.MeasureAllreduceShare(comp, tab,
					[][]topo.NodeID{r1, r2}, 256<<10, netsim.DefaultConfig(), 200)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*share, "%peak")
				once(fmt.Sprintf("fig6-%.2f", taper), func() {
					fmt.Printf("  Fig. 6/§III-F taper %.0f%%: ring allreduce %5.1f%% of peak (rings survive tapering)\n",
						100*taper, 100*share)
				})
			}
		})
	}
}

// BenchmarkFig15DNNCostSavings regenerates the Fig. 15 savings matrix
// (`hxdnn` prints the same values, with the dragonfly column).
func BenchmarkFig15DNNCostSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		models := dnn.Models()
		var lines []string
		for _, hx := range []string{"hx2mesh", "hx4mesh"} {
			vs, rows := dnn.CostSavings(hx)
			for mi, m := range models {
				for j, name := range vs {
					if name != "dragonfly" {
						lines = append(lines, fmt.Sprintf("  %-12s %-24s %5.1fx", m.Name, hx+" vs "+name, rows[mi][j]))
					}
				}
			}
		}
		once("fig15", func() {
			fmt.Println("\nFig. 15 — relative cost savings (>1 favors the HxMesh)")
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// BenchmarkAblationAdaptive compares adaptive (least-queued), random and
// deterministic output selection under permutation traffic.
func BenchmarkAblationAdaptive(b *testing.B) {
	for _, choice := range []struct {
		name string
		c    netsim.Choice
	}{{"least-queued", netsim.LeastQueued}, {"random", netsim.RandomCandidate}, {"deterministic", netsim.FirstCandidate}} {
		b.Run(choice.name, func(b *testing.B) {
			h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
			rng := rand.New(rand.NewSource(3))
			flows := netsim.PermutationFlows(h.Endpoints, 256<<10, rng)
			for i := 0; i < b.N; i++ {
				cfg := netsim.DefaultConfig()
				cfg.Choice = choice.c
				res, err := netsim.NewNet(h.Network, nil, cfg).Run(flows)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AggregateGBps(), "GB/s")
				once("abl-adaptive-"+choice.name, func() {
					fmt.Printf("  ablation routing %-14s aggregate %6.1f GB/s\n", choice.name, res.AggregateGBps())
				})
			}
		})
	}
}

// BenchmarkAblationFlowControl compares ideal buffers against credit-based
// flow control with small buffers.
func BenchmarkAblationFlowControl(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    netsim.Mode
	}{{"ideal", netsim.IdealBuffers}, {"credit", netsim.CreditFC}} {
		b.Run(mode.name, func(b *testing.B) {
			h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
			rng := rand.New(rand.NewSource(5))
			flows := netsim.PermutationFlows(h.Endpoints, 256<<10, rng)
			for i := 0; i < b.N; i++ {
				cfg := netsim.DefaultConfig()
				cfg.Mode = mode.m
				cfg.LP.BufferB = 128 << 10
				res, err := netsim.NewNet(h.Network, nil, cfg).Run(flows)
				if err != nil {
					b.Fatal(err)
				}
				if res.Deadlocked {
					b.Fatal("deadlock")
				}
				b.ReportMetric(res.AggregateGBps(), "GB/s")
				once("abl-fc-"+mode.name, func() {
					fmt.Printf("  ablation flow control %-7s aggregate %6.1f GB/s\n", mode.name, res.AggregateGBps())
				})
			}
		})
	}
}

// BenchmarkAblationAllreduceAlgo compares the four allreduce schedules at
// a representative size.
func BenchmarkAblationAllreduceAlgo(b *testing.B) {
	pr := collective.DefaultParams()
	for i := 0; i < b.N; i++ {
		type row struct {
			algo collective.AllreduceAlgorithm
			t    float64
		}
		var rows []row
		for _, a := range []collective.AllreduceAlgorithm{collective.AlgoRing, collective.AlgoBidirRing, collective.AlgoTwoRings, collective.AlgoTorus2D, collective.AlgoTree} {
			rows = append(rows, row{a, collective.AllreduceTime(a, 1024, 64<<20, pr)})
		}
		once("abl-ar", func() {
			fmt.Println("  ablation allreduce algorithms, p=1024, S=64 MiB:")
			for _, r := range rows {
				fmt.Printf("    %-10s %8.1f us\n", r.algo, r.t/1000)
			}
		})
	}
}

// BenchmarkHamiltonianRings measures the disjoint-ring construction.
func BenchmarkHamiltonianRings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r1, r2, err := collective.DisjointHamiltonianRings(64, 64)
		if err != nil {
			b.Fatal(err)
		}
		if len(r1) != 4096 || len(r2) != 4096 {
			b.Fatal("bad rings")
		}
	}
}

// BenchmarkAllocator measures the greedy allocator on a 1000x1000 grid
// (§IV-A reports sub-second allocation at that scale).
func BenchmarkAllocator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := alloc.NewGrid(1000, 1000)
		for j := int32(0); j < 100; j++ {
			if _, ok := g.Allocate(j, 10, 10, alloc.Options{Transpose: true}); !ok {
				b.Fatal("allocation failed")
			}
		}
	}
}

// BenchmarkPacketSim measures raw simulator throughput (events/sec) in the
// steady state of a sweep: one Sim reused across runs via Reset, the way
// the runner's sweep jobs drive it, so -benchmem tracks the engine's
// per-run allocations rather than construction.
func BenchmarkPacketSim(b *testing.B) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	rng := rand.New(rand.NewSource(9))
	flows := netsim.PermutationFlows(h.Endpoints, 512<<10, rng)
	sim := netsim.NewNet(h.Network, nil, netsim.DefaultConfig())
	if _, err := sim.Run(flows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(flows)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkTraceOverhead pins the obs contract on the packet engine's hot
// path: with instrumentation off ("off") a steady-state run allocates
// nothing and costs what BenchmarkPacketSim costs; with a registry and
// flight recorder attached ("on") the per-run delta stays within a few
// percent. Compare the two sub-benchmarks' time/op (the CI smoke asserts
// 0 B/op on "off").
func BenchmarkTraceOverhead(b *testing.B) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	rng := rand.New(rand.NewSource(9))
	flows := netsim.PermutationFlows(h.Endpoints, 512<<10, rng)
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			cfg := netsim.DefaultConfig()
			if mode == "on" {
				cfg.Metrics = obs.NewRegistry()
				cfg.Trace = obs.NewRecorder(0)
			}
			sim := netsim.NewNet(h.Network, nil, cfg)
			if _, err := sim.Run(flows); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(flows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPacketSimRing runs Fig. 13's ring allreduce on the serial
// engine: both Hamiltonian rings of the small (≈1k-accelerator) Hx2Mesh,
// 256 KiB per neighbor flow, one Sim reused across runs. All 65,536
// initial injections start at t=0 in one calendar slice, the burst that
// once cost the calendar queue ~6 s/op when Run pushed it in ring order
// instead of canonical order. Full size even under -short: the burst is
// the point.
func BenchmarkPacketSimRing(b *testing.B) {
	c, err := core.NewByName("hx2mesh", core.Small)
	if err != nil {
		b.Fatal(err)
	}
	rings, err := c.AllreduceRings()
	if err != nil {
		b.Fatal(err)
	}
	var flows []netsim.Flow
	for _, ring := range rings {
		flows = append(flows, netsim.RingNeighborFlows(ring, 256<<10, true)...)
	}
	sim := netsim.New(c.Comp, c.Table, netsim.DefaultConfig())
	if _, err := sim.Run(flows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(flows)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkPacketSimShards measures the sharded conservative-parallel
// engine on the 16,384-endpoint Hx2Mesh (the paper's headline scale) —
// the configuration the shard counts are meant for. Results are
// bit-identical across the sub-benchmarks; only events/sec moves. In
// -short mode (CI) a 2x2x16x16 mesh keeps the wall time down.
func BenchmarkPacketSimShards(b *testing.B) {
	w := 64
	if testing.Short() {
		w = 16
	}
	h := topo.NewHxMesh(2, 2, w, w, topo.DefaultLinkParams())
	comp := simcore.Of(h.Network)
	table := routing.NewTable(comp)
	flows := netsim.ShiftFlows(h.Endpoints, len(h.Endpoints)/4+1, 32<<10)
	for _, shards := range []int{1, 2, 4, 8} {
		// No dash before the count: bench.sh's JSON normalizer strips a
		// trailing -N (the GOMAXPROCS suffix) from benchmark names.
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			cfg := netsim.DefaultConfig()
			cfg.Shards = shards
			sim := netsim.New(comp, table, cfg)
			if _, err := sim.Run(flows); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(flows)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkResilienceSweep times paper-small's resilience step in
// process: the §III-E link-failure sweep on the small (≈1k-accelerator)
// Hx2Mesh, 5 failure fractions × 3 trials × 4 shifts of 64 KiB per peer,
// as `hxsim -topo hx2mesh -size small -pattern resilience -trials 3
// -shifts 4 -bytes 65536` runs it. Every degraded trial builds its own
// masked routing table, so each iteration pays the cold distance-vector
// warm-up the CLI pays, next to the packet simulations. Small even under
// -short: the degraded-fabric warm-up is the point.
func BenchmarkResilienceSweep(b *testing.B) {
	pool := runner.New(benchWorkers())
	c, err := pool.Cluster("hx2mesh", core.Small)
	if err != nil {
		b.Fatal(err)
	}
	fracs := runner.ResilienceFracs(0, runner.DefaultResilienceSteps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := pool.ResilienceSweep(c, netsim.DefaultConfig(), 64<<10, fracs, 3, 4, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(100*last.Share, "%inject")
		once("resilience", func() {
			fmt.Printf("  resilience sweep hx2mesh/small: %.1f%% of injection at %.0f%% failed links, %d workers\n",
				100*last.Share, 100*last.FailFrac, pool.Workers())
		})
	}
}

// benchWorkers returns the worker count for runner-based sweeps. It honors
// go test's standard -parallel flag (go test -bench ... -parallel N), so
// the runner's scaling can be measured directly:
//
//	go test -bench BenchmarkAlltoallSweep -short -parallel 1
//	go test -bench BenchmarkAlltoallSweep -short -parallel 8
func benchWorkers() int {
	if f := flag.Lookup("test.parallel"); f != nil {
		if g, ok := f.Value.(flag.Getter); ok {
			if n, ok := g.Get().(int); ok && n > 0 {
				return n
			}
		}
	}
	return runtime.GOMAXPROCS(0)
}

// BenchmarkAlltoallSweep measures the packet-level alltoall shift sweep
// (the Table II global-bandwidth estimator) submitted through the
// experiment runner. One simulation per sampled shift runs on each worker;
// the result is identical to the serial netsim.AlltoallShare for any
// worker count. With -short the tiny cluster is used as a smoke test.
func BenchmarkAlltoallSweep(b *testing.B) {
	size := core.Small
	shifts := 8
	bytes := int64(32 << 10)
	if testing.Short() {
		size = core.Tiny
		shifts = 4
	}
	pool := runner.NewSeeded(benchWorkers(), 7)
	c, err := pool.Cluster("hx2mesh", size)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the shared routing table so the measurement isolates the sweep.
	if _, err := pool.AlltoallPacketShare(c, netsim.DefaultConfig(), 8<<10, shifts, 7); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		share, err := pool.AlltoallPacketShare(c, netsim.DefaultConfig(), bytes, shifts, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*share, "%inject")
		once("a2asweep", func() {
			fmt.Printf("  alltoall sweep hx2mesh/%s: %d shifts on %d workers, share %.1f%%\n",
				size, shifts, pool.Workers(), 100*share)
		})
	}
}

// BenchmarkFlowSolverLarge measures the paper's headline scale end to end:
// a flow-level alltoall shift sweep on the 16,384-accelerator Hx2Mesh —
// the cluster whose Table II numbers cost the paper ~0.6M SST core-hours.
// The shared routing table's distance vectors (the table's only cache,
// about 1.1 GiB at this size) are warmed in parallel outside the timed loop;
// each iteration then fans the per-shift incremental water-filling solves
// onto the pool.
// Runs in CI under -short to pin the large-cluster trajectory across PRs.
func BenchmarkFlowSolverLarge(b *testing.B) {
	shifts := 4
	if testing.Short() {
		shifts = 2
	}
	pool := runner.NewSeeded(benchWorkers(), 7)
	c, err := pool.Cluster("hx2mesh", core.Large)
	if err != nil {
		b.Fatal(err)
	}
	c.Table.PrecomputeParallel(c.Comp.Endpoints, pool.Workers())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		share, err := pool.AlltoallFlowShare(c, c.FlowConfig(9), shifts, 9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*share, "%inject")
		once("flowlarge", func() {
			fmt.Printf("  flow solver hx2mesh/large: 16384 endpoints, %d shifts on %d workers, share %.1f%%\n",
				shifts, pool.Workers(), 100*share)
		})
	}
}

// BenchmarkTable2GlobalBWLarge regenerates the global (alltoall) bandwidth
// column of Table II at the paper's actual design point — the ≈16k
// accelerator clusters — with the flow-level solver, the measurement SST
// needed 0.6M core-hours for. Each topology gets its own pool so the
// multi-GB table caches can be collected between rows; skipped under
// -short (several minutes and a few GB per row when run in full).
func BenchmarkTable2GlobalBWLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("large Table II sweep: run without -short")
	}
	for _, name := range core.TopologyNames() {
		b.Run(name, func(b *testing.B) {
			pool := runner.NewSeeded(benchWorkers(), 7)
			c, err := pool.Cluster(name, core.Large)
			if err != nil {
				b.Fatal(err)
			}
			c.Table.PrecomputeParallel(c.AliveEndpoints(), pool.Workers())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				share, err := pool.AlltoallFlowShare(c, c.FlowConfig(9), 2, 9)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*share, "%inject")
				once("t2glob-large-"+name, func() {
					fmt.Printf("  Table II global BW (large) %-10s flow %5.1f%%  paper %5.1f%%\n",
						name, 100*share, table2[name].globalBW)
				})
			}
		})
	}
}

// BenchmarkAlltoallSweepFaulted is the degraded-fabric variant of
// BenchmarkAlltoallSweep: the same shift sweep with 10% of the cables
// failed (connectivity-preserving, seeded), exercising the fault-masked
// routing tables in the hot path. The pair of benchmarks tracks both the
// pristine and the degraded packet-rate trajectory across PRs.
func BenchmarkAlltoallSweepFaulted(b *testing.B) {
	size := core.Small
	shifts := 8
	bytes := int64(32 << 10)
	if testing.Short() {
		size = core.Tiny
		shifts = 4
	}
	pool := runner.NewSeeded(benchWorkers(), 7)
	c, err := pool.Cluster("hx2mesh", size)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := c.SampleFaults(0.10, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	fc := c.WithFaults(fs)
	if _, err := pool.AlltoallPacketShare(fc, netsim.DefaultConfig(), 8<<10, shifts, 7); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		share, err := pool.AlltoallPacketShare(fc, netsim.DefaultConfig(), bytes, shifts, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*share, "%inject")
		once("a2asweepfault", func() {
			fmt.Printf("  alltoall sweep hx2mesh/%s with %d failed links: share %.1f%%\n",
				size, fc.Faults.FailedLinks(), 100*share)
		})
	}
}
