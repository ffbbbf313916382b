package workload

import (
	"math/rand"
	"sort"

	"hammingmesh/internal/alloc"
)

// HeuristicStack names one line of Fig. 8: which allocator optimizations
// are enabled, applied cumulatively in the paper's order.
type HeuristicStack struct {
	Name      string
	Transpose bool
	Aspect    bool
	Sort      bool
	Locality  bool
}

// Fig8Stacks are the six heuristic combinations of Fig. 8.
func Fig8Stacks() []HeuristicStack {
	return []HeuristicStack{
		{Name: "greedy"},
		{Name: "greedy+transpose", Transpose: true},
		{Name: "greedy+transpose+aspect", Transpose: true, Aspect: true},
		{Name: "greedy+transpose+aspect+locality", Transpose: true, Aspect: true, Locality: true},
		{Name: "greedy+transpose+aspect+sort", Transpose: true, Aspect: true, Sort: true},
		{Name: "greedy+transpose+aspect+sort+locality", Transpose: true, Aspect: true, Sort: true, Locality: true},
	}
}

func (h HeuristicStack) options() alloc.Options {
	return alloc.Options{Transpose: h.Transpose, AspectRatio: h.Aspect, Locality: h.Locality}
}

// UtilizationResult is one allocation experiment outcome.
type UtilizationResult struct {
	Utilization float64
	UpperA2A    float64 // upper-layer traffic fraction, alltoall (Fig. 9)
	UpperAllred float64 // upper-layer traffic fraction, allreduce (Fig. 9)
	JobsPlaced  int
}

// RunMix allocates one job mix (sizes in boards) on an x×y grid with the
// given heuristic stack after failing `failures` distinct boards drawn by
// rng (every board when failures ≥ x·y), returning utilization and
// traffic statistics. The grid is freshly created each run.
func RunMix(x, y int, mix []int, h HeuristicStack, failures int, rng *rand.Rand) UtilizationResult {
	g := alloc.NewGrid(x, y)
	if failures > 0 {
		for _, b := range rng.Perm(x * y)[:min(failures, x*y)] {
			g.Fail(b%x, b/x)
		}
	}
	jobs := append([]int{}, mix...)
	if h.Sort {
		sort.Sort(sort.Reverse(sort.IntSlice(jobs)))
	}
	opt := h.options()
	var placements []*alloc.Placement
	var res UtilizationResult
	for ji, size := range jobs {
		u, v := ShapeFor(size)
		if u == 0 {
			continue
		}
		if p, ok := g.Allocate(int32(ji), u, v, opt); ok {
			placements = append(placements, p)
			res.JobsPlaced++
		}
	}
	res.Utilization = g.Utilization()
	res.UpperA2A = alloc.SystemUpperLayerFraction(placements, alloc.TrafficAlltoall, alloc.GroupBoards)
	res.UpperAllred = alloc.SystemUpperLayerFraction(placements, alloc.TrafficAllreduce, alloc.GroupBoards)
	return res
}

// Stats summarizes a sample of utilizations.
type Stats struct {
	Mean, Median, P99, Min, Max float64
}

// Summarize computes distribution statistics (Fig. 8 reports mean, median
// and the 99th percentile of 1,000 allocations).
func Summarize(vals []float64) Stats {
	if len(vals) == 0 {
		return Stats{}
	}
	s := append([]float64{}, vals...)
	sort.Float64s(s)
	mean := 0.0
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	pick := func(q float64) float64 {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return Stats{Mean: mean, Median: pick(0.5), P99: pick(0.01), Min: s[0], Max: s[len(s)-1]}
}
