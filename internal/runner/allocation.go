package runner

import (
	"fmt"
	"math/rand"

	"hammingmesh/internal/workload"
)

// UtilizationPoint aggregates the job mixes of one heuristic stack in the
// allocation study (§IV-B).
type UtilizationPoint struct {
	Stack workload.HeuristicStack
	// Utilization summarizes the per-mix utilization of working boards
	// (Figs. 8 and 10).
	Utilization workload.Stats
	// UpperA2APct and UpperAllredPct are the mean upper-layer fat-tree
	// traffic fractions of alltoall and allreduce traffic (Fig. 9), in
	// percent: 100·Σ/mixes over the per-mix fractions.
	UpperA2APct, UpperAllredPct float64
}

// UtilizationSweep runs the allocation study (Figs. 8–10): for each
// heuristic stack, `mixes` cluster-filling job mixes from the Alibaba-like
// distribution are allocated on an x×y board grid with `failures` randomly
// failed boards. Each stack is one Run of `mixes` jobs, so mix m of every
// stack is drawn from the same per-job seed: its own sampler seeded with
// ctx.Seed and a failure RNG seeded with ctx.Seed+99. Mixes are therefore
// i.i.d. (an oversized job at the tail of one mix is dropped rather than
// carried into the next) and the points are identical for any worker
// count.
func (p *Pool) UtilizationSweep(x, y, accelsPerBoard, mixes, failures int, stacks []workload.HeuristicStack) []UtilizationPoint {
	d := workload.AlibabaLike()
	points := make([]UtilizationPoint, len(stacks))
	for si, h := range stacks {
		jobs := make([]Job, mixes)
		for m := range jobs {
			jobs[m] = Job{
				Name: fmt.Sprintf("%s/mix%d", h.Name, m),
				Run: func(ctx *Ctx) (any, error) {
					sampler := workload.NewSampler(d, ctx.Seed)
					rng := rand.New(rand.NewSource(ctx.Seed + 99))
					return workload.RunMix(x, y, sampler.Mix(x*y, accelsPerBoard), h, failures, rng), nil
				},
			}
		}
		utils := make([]float64, 0, mixes)
		a2a, ar := 0.0, 0.0
		for _, res := range p.Run(jobs) {
			r := res.Value.(workload.UtilizationResult)
			utils = append(utils, r.Utilization)
			a2a += r.UpperA2A
			ar += r.UpperAllred
		}
		points[si] = UtilizationPoint{
			Stack:          h,
			Utilization:    workload.Summarize(utils),
			UpperA2APct:    100 * a2a / float64(mixes),
			UpperAllredPct: 100 * ar / float64(mixes),
		}
	}
	return points
}
