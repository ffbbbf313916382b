// Allocation walkthrough: reproduces the scenarios of Figs. 4 and 5 —
// non-consecutive virtual sub-HxMeshes around failed boards, 3D job
// folding, defragmentation via checkpoint/restart, and the utilization
// impact of the heuristic stack.
package main

import (
	"fmt"
	"math/rand"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/workload"
)

func main() {
	// --- Fig. 5: subnetworks in the presence of failures ------------------
	fmt.Println("== Fig. 5: virtual sub-HxMeshes around failures ==")
	g := alloc.NewGrid(4, 4)
	// Fail three boards as in the left part of Fig. 5.
	g.Fail(1, 2) // (2,2) in paper coordinates
	g.Fail(2, 0)
	g.Fail(2, 3)
	// A 3x3 job fits around the holes (non-consecutive rows/columns form a
	// virtual sub-HxMesh, §III-E).
	if p, ok := g.Allocate(2, 3, 3, alloc.DefaultOptions()); ok {
		fmt.Printf("3x3 job -> rows %v, cols %v\n", p.Rows, p.Cols)
	}
	// A 2x4 job takes the remaining two columns.
	if p, ok := g.Allocate(1, 2, 4, alloc.DefaultOptions()); ok {
		fmt.Printf("2x4 job -> rows %v, cols %v (placed as %dx%d)\n", p.Rows, p.Cols, p.U(), p.V())
	} else {
		fmt.Println("2x4 job could not be placed after the 3x3 job")
	}
	fmt.Printf("utilization of working boards: %.0f%%\n\n", 100*g.Utilization())

	// --- Fig. 4: folding a 3D virtual topology ---------------------------
	fmt.Println("== Fig. 4: 4x4x2 virtual topology folded onto boards ==")
	u, v := alloc.FoldJob(4, 4, 2)
	fmt.Printf("3D 4x4x2 job folds to a %dx%d board request\n", u, v)
	big := alloc.NewGrid(8, 8)
	if p, ok := big.Allocate(1, u, v, alloc.DefaultOptions()); ok {
		fmt.Printf("placed on rows %v, cols %v\n\n", p.Rows, p.Cols)
	}

	// --- Defragmentation ---------------------------------------------------
	fmt.Println("== defragmentation (checkpoint/restart, §IV-A) ==")
	frag := alloc.NewGrid(8, 8)
	rng := rand.New(rand.NewSource(7))
	// Fill with random small jobs, then release every other one.
	var placed []int32
	for j := int32(0); j < 20; j++ {
		if _, ok := frag.Allocate(j, 1+rng.Intn(2), 1+rng.Intn(3), alloc.DefaultOptions()); ok {
			placed = append(placed, j)
		}
	}
	for i, j := range placed {
		if i%2 == 0 {
			frag.Release(j)
		}
	}
	_, okBefore := frag.Allocate(100, 4, 6, alloc.DefaultOptions())
	fmt.Printf("4x6 job on fragmented grid: placed=%v\n", okBefore)
	if !okBefore {
		frag.Reset() // checkpoint all, shuffle, restart
		for i, j := range placed {
			if i%2 == 1 {
				u, v := workload.ShapeFor(2)
				frag.Allocate(j, u, v, alloc.DefaultOptions())
			}
		}
		_, okAfter := frag.Allocate(100, 4, 6, alloc.DefaultOptions())
		fmt.Printf("4x6 job after defragmentation: placed=%v\n", okAfter)
	}
	fmt.Println()

	// --- Fig. 8 in miniature ------------------------------------------------
	// The allocation study hxalloc runs; these rows are what
	// `hxalloc -grid 16x16 -mixes 20` prints.
	fmt.Println("== heuristic stack impact (Fig. 8, 20 mixes on 16x16) ==")
	for _, pt := range runner.NewSeeded(0, 1).UtilizationSweep(16, 16, 4, 20, 0, workload.Fig8Stacks()) {
		st := pt.Utilization
		fmt.Printf("%-42s mean=%.1f%% median=%.1f%%\n", pt.Stack.Name, 100*st.Mean, 100*st.Median)
	}
}
