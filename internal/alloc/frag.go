package alloc

// FreeBoards counts the boards that are neither failed nor owned.
func (g *Grid) FreeBoards() int {
	n := 0
	for _, o := range g.owner {
		if o == Free {
			n++
		}
	}
	return n
}

// LargestPlaceable returns the board count of the largest job the grid can
// place right now: the maximum u·v over all shapes for which the greedy
// row-intersection search (the same one Allocate runs) finds a placement.
// Because placements need u rows sharing v free columns — not a contiguous
// rectangle — this is the allocator's own notion of "largest free block".
func (g *Grid) LargestPlaceable() int {
	inter, trial := g.sc.inter, g.sc.trial
	best := 0
	for v := 1; v <= g.X; v++ {
		maxU := 0
		for start := 0; start < g.Y; start++ {
			if g.free[start].count() < v {
				continue
			}
			copy(inter, g.free[start])
			u := 1
			for r := start + 1; r < g.Y; r++ {
				g.free[r].andInto(trial, inter)
				if trial.count() >= v {
					inter, trial = trial, inter
					u++
				}
			}
			if u > maxU {
				maxU = u
			}
		}
		if maxU == 0 {
			break // no row has v free columns; wider shapes cannot fit either
		}
		if maxU*v > best {
			best = maxU * v
		}
	}
	return best
}

// Fragmentation measures how much of the free capacity is stranded in
// shapes no single job can use: 1 − LargestPlaceable/FreeBoards. An empty
// or freshly reset grid scores 0 (one job could take everything); a grid
// whose free boards are scattered so that only small placements succeed
// scores close to 1. A grid with no free boards scores 0 (nothing is
// stranded). Schedulers trigger checkpoint-migrate defragmentation when
// this crosses a threshold while jobs wait.
func (g *Grid) Fragmentation() float64 {
	free := g.FreeBoards()
	if free == 0 {
		return 0
	}
	return 1 - float64(g.LargestPlaceable())/float64(free)
}
