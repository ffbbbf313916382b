// Resilience: the paper's graceful-degradation story (§III-E) end to end —
// build a cluster, break it in increasingly severe ways, and watch routing,
// the simulators and the allocator work around the damage.
package main

import (
	"errors"
	"fmt"
	"log"

	"hammingmesh/internal/core"
	"hammingmesh/internal/faults"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/topo"
)

func main() {
	// A tiny Hx2Mesh: 4x4 boards of 2x2 accelerators.
	c := core.NewHxMesh(2, 2, 4, 4)
	fmt.Printf("pristine %s: %d accelerators, %d cables\n",
		c.Net.Name, c.Net.NumEndpoints(), len(faults.CableIDs(c.Comp)))

	// 1. Explicit faults: kill one row switch and one cable. The FaultSet
	// is an immutable port-mask overlay over the shared compiled network.
	fs := faults.NewBuilder(c.Comp).
		FailNode(c.Comp.Switches[0]).
		FailLink(c.Comp.PortID(int32(c.Net.Endpoints[0]), 0)).
		Build()
	fmt.Printf("scenario A: %v\n", fs)

	// A degraded cluster view recomputes routes around the damage; every
	// measurement works unchanged.
	dc := c.WithFaults(fs)
	pool := runner.NewSeeded(0, 1)
	share, err := pool.AlltoallFlowShare(dc, dc.FlowConfig(1), 8, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  alltoall with a dead switch: %.0f%% of injection\n", 100*share)

	// 2. A dead board: its four accelerators drop out, the survivors keep
	// talking, and a flow aimed at the dead board fails with a typed error
	// instead of a panic.
	bfs, err := c.SampleBoardFaults(1, 7)
	if err != nil {
		log.Fatal(err)
	}
	bc := c.WithFaults(bfs)
	fmt.Printf("scenario B: %v, %d survivors\n", bfs, len(bc.AliveEndpoints()))
	deadEp := firstDead(bfs, c)
	_, err = netsim.New(bc.Comp, bc.Table, netsim.DefaultConfig()).Run(
		[]netsim.Flow{{Src: bc.AliveEndpoints()[0], Dst: deadEp, Bytes: 8192}})
	var unreach *routing.ErrUnreachable
	if errors.As(err, &unreach) {
		fmt.Printf("  flow to dead accelerator %d: %v (typed, catchable)\n", deadEp, err)
	}

	// The allocator skips the failed board: a job that needs the full grid
	// no longer fits, a 3x3 one places around the hole.
	if _, ok := bc.AllocateJob(1, 4, 4); !ok {
		fmt.Println("  4x4-board job correctly rejected (one board down)")
	}
	if p, ok := bc.AllocateJob(2, 3, 3); ok {
		fmt.Printf("  3x3-board job placed around the failure: rows %v cols %v\n", p.Rows, p.Cols)
	}

	// 3. The resilience sweep (the Fig. 10-style bandwidth axis): delivered
	// alltoall bandwidth vs link-failure fraction, trials in parallel on
	// the experiment runner. Fault sets are nested per trial, so the curve
	// is guaranteed to measure degradation, not sampling noise.
	pts, err := pool.ResilienceSweep(c, netsim.DefaultConfig(), 32<<10,
		[]float64{0, 0.05, 0.1, 0.2}, 3, 3, 42, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("resilience sweep (share of injection bandwidth):")
	for _, p := range pts {
		fmt.Printf("  %4.0f%% links down: %5.2f%% (worst trial %5.2f%%), makespan %6.0f ns\n",
			100*p.FailFrac, 100*p.Share, 100*p.MinShare, p.Makespan)
	}
}

// firstDead returns one endpoint of the failed board.
func firstDead(fs *faults.FaultSet, c *core.Cluster) topo.NodeID {
	for _, e := range c.Net.Endpoints {
		if fs.NodeDown(e) {
			return e
		}
	}
	return topo.None
}
