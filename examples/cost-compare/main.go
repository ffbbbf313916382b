// Cost comparison: regenerates the Table II economics — cost, bandwidth
// shares (closed forms plus flow-level simulation on the small clusters),
// and the cost-per-bandwidth savings relative to a nonblocking fat tree.
package main

import (
	"fmt"
	"log"

	"hammingmesh/internal/analysis"
	"hammingmesh/internal/core"
	"hammingmesh/internal/cost"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/topo"
)

func main() {
	prices := cost.PaperPrices()
	invs := cost.SmallCluster()
	ftCost := invs[0].Cost(prices)

	// Closed-form alltoall shares per topology (see internal/analysis).
	a2aShare := map[string]float64{
		"nonblocking fat tree": analysis.FatTreeAlltoallShare(topo.NonblockingTree()),
		"50% tapered fat tree": analysis.FatTreeAlltoallShare(topo.TaperedTree(0.5)),
		"75% tapered fat tree": analysis.FatTreeAlltoallShare(topo.TaperedTree(0.75)),
		"dragonfly":            0.63, // Table II (measured in the paper)
		"2D hyperx":            0.92,
		"hx2mesh":              analysis.AlltoallShare(2, 2),
		"hx4mesh":              analysis.AlltoallShare(4, 4),
		"2D torus":             analysis.TorusAlltoallShare(32, 32),
	}

	fmt.Println("Small cluster (≈1k accelerators) — Table II economics")
	fmt.Printf("%-22s %10s %10s %14s %14s\n", "topology", "cost [M$]", "a2a share", "global saving", "allred saving")
	for _, inv := range invs {
		share := a2aShare[inv.Name]
		// Global saving: cost per unit of alltoall bandwidth vs fat tree.
		gs, err := cost.PerBandwidthSaving(inv, share, invs[0], a2aShare[invs[0].Name], prices)
		if err != nil {
			log.Fatal(err)
		}
		// Allreduce saving: all topologies run rings near optimum, so it
		// approaches the raw cost ratio.
		as := cost.SavingVersus(inv, invs[0], prices) * 0.99
		fmt.Printf("%-22s %10.2f %9.0f%% %13.1fx %13.1fx\n",
			inv.Name, inv.Cost(prices)/1e6, 100*share, gs, as)
	}
	fmt.Printf("\n(nonblocking fat tree = %.1f M$ baseline)\n\n", ftCost/1e6)

	// Flow-level verification on the small instance of each family: at
	// tiny size both fat trees are one switch, so only the small ones have
	// an upper layer for the 75% taper to cut.
	fmt.Println("flow-level alltoall shares (small instances, 8 sampled shifts):")
	pool := runner.New(0)
	for _, name := range []string{"fattree", "fattree75", "hx2mesh", "torus"} {
		c, err := pool.Cluster(name, core.Small)
		if err != nil {
			log.Fatal(err)
		}
		share, err := pool.AlltoallFlowShare(c, c.FlowConfig(3), 8, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   %-10s %5.1f%%\n", name, 100*share)
	}
}
