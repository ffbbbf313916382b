// Command hxdnn reproduces the DNN workload study of §V-B and Fig. 15:
// per-topology iteration times of ResNet-152, CosmoFlow, GPT-3, GPT-3 MoE
// and DLRM, and the relative cost savings of Hx2Mesh and Hx4Mesh against
// every other topology.
//
// Usage:
//
//	hxdnn               # iteration-time table + Fig. 15 savings
//	hxdnn -paper        # also print the paper's reported runtimes
package main

import (
	"flag"
	"fmt"

	"hammingmesh/internal/dnn"
)

func main() {
	paper := flag.Bool("paper", false, "include the paper's reported runtimes")
	flag.Parse()

	perfs := dnn.StandardPerf()
	models := dnn.Models()

	fmt.Println("modeled iteration time [ms] (small-cluster effective bandwidths):")
	fmt.Printf("%-12s", "model")
	for _, p := range perfs {
		fmt.Printf(" %10s", p.Name)
	}
	fmt.Println()
	for _, m := range models {
		fmt.Printf("%-12s", m.Name)
		for _, p := range perfs {
			fmt.Printf(" %10.2f", dnn.IterationMS(m, p))
		}
		fmt.Println()
	}
	if *paper {
		fmt.Println("\npaper-reported iteration time [ms]:")
		for _, m := range models {
			fmt.Printf("%-12s", m.Name)
			for _, p := range perfs {
				if v, ok := dnn.PaperRuntimesMS[m.Name][p.Name]; ok {
					fmt.Printf(" %10.2f", v)
				} else {
					fmt.Printf(" %10s", "-")
				}
			}
			fmt.Println()
		}
	}

	for _, hx := range []string{"hx2mesh", "hx4mesh"} {
		vs, rows := dnn.CostSavings(hx)
		fmt.Printf("\nFig. 15 — relative cost saving of %s vs others (>1 favors %s):\n", hx, hx)
		fmt.Printf("%-12s", "model")
		for _, name := range vs {
			fmt.Printf(" %10s", name)
		}
		fmt.Println()
		for i, m := range models {
			fmt.Printf("%-12s", m.Name)
			for _, s := range rows[i] {
				fmt.Printf(" %10.1f", s)
			}
			fmt.Println()
		}
	}
}
