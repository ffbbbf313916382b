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
//
// Alltoall counts the ordered board pairs of an evenly strided sample of
// at most alltoallSample rows and as many columns, which preserves the
// crossing fraction because the metric is an average over pairs. The
// counts factor, so no pair is enumerated: with n_r sampled rows, n_c
// sampled columns, and X_r and X_c their ordered pairs in different L1
// groups, crossings = n_r²·X_c + n_c²·X_r and traversals =
// n_r·n_c(n_c−1) + n_c·n_r(n_r−1) + 2·n_r(n_r−1)·n_c(n_c−1), the last
// term for the pairs on different rows and columns.
func UpperLayerFraction(p *Placement, kind TrafficKind, groupBoards int) float64 {
	if groupBoards <= 0 {
		groupBoards = GroupBoards
	}
	crossings, traversals := 0, 0
	switch kind {
	case TrafficAlltoall:
		nr, xr := sampleGroupPairs(p.Rows, groupBoards)
		nc, xc := sampleGroupPairs(p.Cols, groupBoards)
		crossings = nr*nr*xc + nc*nc*xr
		traversals = nr*nc*(nc-1) + nc*nr*(nr-1) + 2*nr*(nr-1)*nc*(nc-1)
	case TrafficAllreduce:
		u, v := p.U(), p.V()
		cross := func(a, b int) {
			traversals++
			if a/groupBoards != b/groupBoards {
				crossings++
			}
		}
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

// alltoallSample caps the rows and the columns UpperLayerFraction samples
// for alltoall traffic.
const alltoallSample = 12

// sampleGroupPairs returns the size n of the evenly strided sample of at
// most alltoallSample entries of xs (the first and last always in; the
// stride is at least 1, so no entry is sampled twice) and the number of
// ordered pairs of sampled entries in different L1 groups, n² − Σ_g n_g².
// xs ascends, so each group's entries form one run of the sample and one
// pass counts the runs.
func sampleGroupPairs(xs []int, groupBoards int) (n, pairs int) {
	n, step := len(xs), 1.0
	if n > alltoallSample {
		n, step = alltoallSample, float64(len(xs)-1)/float64(alltoallSample-1)
	}
	group, run, sameGroup := 0, 0, 0
	for i := 0; i < n; i++ {
		if g := xs[int(float64(i)*step+0.5)] / groupBoards; run == 0 || g != group {
			sameGroup += run * run
			group, run = g, 0
		}
		run++
	}
	sameGroup += run * run
	return n, n*n - sameGroup
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
