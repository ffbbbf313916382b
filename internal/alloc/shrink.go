package alloc

import "fmt"

// Shrink trims a committed placement to a subset of its rows and columns,
// freeing the trimmed boards, and returns the reduced placement. keepRows
// and keepCols must be non-empty subsets of p.Rows and p.Cols; every board
// of p must still be owned by p.Job (the grid is left untouched on error).
// The elastic scheduler uses this to ride out a board failure: the failed
// board's row or column is trimmed away, the board itself ends up Free,
// and the caller may then Fail it without evicting the job.
func (g *Grid) Shrink(p *Placement, keepRows, keepCols []int) (*Placement, error) {
	if len(keepRows) == 0 || len(keepCols) == 0 {
		return nil, fmt.Errorf("alloc: shrink of job %d to an empty shape", p.Job)
	}
	inRows := make(map[int]bool, len(keepRows))
	for _, r := range keepRows {
		if !containsInt(p.Rows, r) {
			return nil, fmt.Errorf("alloc: shrink keeps row %d outside placement rows %v", r, p.Rows)
		}
		inRows[r] = true
	}
	inCols := make(map[int]bool, len(keepCols))
	for _, c := range keepCols {
		if !containsInt(p.Cols, c) {
			return nil, fmt.Errorf("alloc: shrink keeps col %d outside placement cols %v", c, p.Cols)
		}
		inCols[c] = true
	}
	for _, r := range p.Rows {
		for _, c := range p.Cols {
			if own := g.owner[r*g.X+c]; own != p.Job {
				return nil, fmt.Errorf("alloc: board (%d,%d) owned by %d, not job %d; placement is stale", c, r, own, p.Job)
			}
		}
	}
	for _, r := range p.Rows {
		for _, c := range p.Cols {
			if !inRows[r] || !inCols[c] {
				g.set(r*g.X+c, Free)
			}
		}
	}
	np := &Placement{Job: p.Job}
	np.Rows = append(np.Rows, keepRows...)
	np.Cols = append(np.Cols, keepCols...)
	return np, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
