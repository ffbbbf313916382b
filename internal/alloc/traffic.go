package alloc

// TrafficKind selects the workload whose upper-layer fat-tree traffic is
// accounted (Fig. 9).
type TrafficKind uint8

const (
	// TrafficAlltoall models uniform all-to-all between the job's boards.
	TrafficAlltoall TrafficKind = iota
	// TrafficAllreduce models ring allreduce: traffic flows between
	// virtually adjacent boards (including the wrap-around edges).
	TrafficAllreduce
)

// UpperLayerFraction computes, for a placement, the fraction of
// dimension-network traversals that must cross the upper level of a
// two-level per-dimension fat tree whose first-level switches each cover
// groupBoards consecutive boards (zero means GroupBoards). Board pairs in
// the same L1 group stay in the first level; pairs in different groups
// cross the upper level. Pairs on different rows and columns traverse two
// dimension networks via an intermediate board (§IV-C2), contributing two
// traversals.
func UpperLayerFraction(p *Placement, kind TrafficKind, groupBoards int) float64 {
	if groupBoards <= 0 {
		groupBoards = GroupBoards
	}
	crossings, traversals := 0, 0
	cross := func(a, b int) {
		traversals++
		if a/groupBoards != b/groupBoards {
			crossings++
		}
	}
	switch kind {
	case TrafficAlltoall:
		// Full enumeration is O((uv)²); for large jobs sample a stride of
		// rows and columns, which preserves the crossing fraction because
		// the metric is an average over pairs.
		rows, cols := strideSample(p.Rows, 12), strideSample(p.Cols, 12)
		for i, r1 := range rows {
			for j, c1 := range cols {
				for i2, r2 := range rows {
					for j2, c2 := range cols {
						if i == i2 && j == j2 {
							continue
						}
						switch {
						case i == i2: // same physical row: row network only
							cross(c1, c2)
						case j == j2: // same column: column network only
							cross(r1, r2)
						default: // via intermediate board: one of each
							cross(c1, c2)
							cross(r1, r2)
						}
					}
				}
			}
		}
	case TrafficAllreduce:
		u, v := p.U(), p.V()
		for i := 0; i < u; i++ {
			for j := 0; j < v; j++ {
				// Virtual ring neighbors along both dimensions (wrapping).
				cross(p.Cols[j], p.Cols[(j+1)%v])
				cross(p.Rows[i], p.Rows[(i+1)%u])
			}
		}
	}
	if traversals == 0 {
		return 0
	}
	return float64(crossings) / float64(traversals)
}

// SystemUpperLayerFraction aggregates UpperLayerFraction over placements,
// weighting each placement by its traversal count (board-pair volume).
func SystemUpperLayerFraction(ps []*Placement, kind TrafficKind, groupBoards int) float64 {
	totalCross, totalTrav := 0.0, 0.0
	for _, p := range ps {
		f := UpperLayerFraction(p, kind, groupBoards)
		w := float64(weight(p, kind))
		totalCross += f * w
		totalTrav += w
	}
	if totalTrav == 0 {
		return 0
	}
	return totalCross / totalTrav
}

func weight(p *Placement, kind TrafficKind) int {
	n := p.U() * p.V()
	if kind == TrafficAlltoall {
		return n * (n - 1)
	}
	return 2 * n
}

// strideSample returns at most max entries of xs, evenly strided,
// always including the first and last entries.
func strideSample(xs []int, max int) []int {
	if len(xs) <= max {
		return xs
	}
	out := make([]int, 0, max)
	step := float64(len(xs)-1) / float64(max-1)
	prev := -1
	for i := 0; i < max; i++ {
		idx := int(float64(i)*step + 0.5)
		if idx == prev {
			continue
		}
		prev = idx
		out = append(out, xs[idx])
	}
	return out
}
