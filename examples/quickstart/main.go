// Quickstart: build a HammingMesh cluster, inspect its closed-form
// properties, measure its bandwidth with the packet and flow simulators,
// and allocate a training job — the 60-second tour of the library.
package main

import (
	"fmt"
	"log"

	"hammingmesh/internal/core"
	"hammingmesh/internal/runner"
)

func main() {
	// An Hx2Mesh with 4x4 boards of 2x2 accelerators: 64 accelerators,
	// the tiny sibling of the paper's 16x16 small cluster.
	c := core.NewHxMesh(2, 2, 4, 4)

	fmt.Printf("built %s: %d accelerators, %d switches/plane\n",
		c.Net.Name, c.Net.NumEndpoints(), c.Net.NumSwitches())
	fmt.Printf("network cost: $%.2fM at April-2022 prices\n", c.CostMUSD())
	fmt.Printf("graph diameter: %d cables\n", c.Diameter())

	s, err := c.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relative bisection bandwidth: %.0f%% (1/2a, §III-A)\n", 100*s.RelBisection)

	// Measure the two headline bandwidths of Table II.
	ar, err := c.AllreduceShare(256 << 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ring allreduce: %.0f%% of the theoretical optimum\n", 100*ar)

	// The alltoall share is the flow-level sweep hxsim and hxd run: one
	// max-min solve per sampled shift, fanned out on a worker pool.
	a2a, err := runner.New(0).AlltoallFlowShare(c, c.FlowConfig(1), 8, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alltoall global bandwidth: %.0f%% of injection\n", 100*a2a)

	// Allocate a 2x2-board job (16 accelerators) — it receives a virtual
	// sub-HxMesh with full, isolated bandwidth.
	if p, ok := c.AllocateJob(1, 2, 2); ok {
		fmt.Printf("job 1 placed on rows %v x cols %v\n", p.Rows, p.Cols)
	} else {
		log.Fatal("allocation failed")
	}
}
