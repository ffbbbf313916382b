package runner

import (
	"fmt"
	"math/rand"
	"sort"

	"hammingmesh/internal/core"
	"hammingmesh/internal/flowsim"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/topo"
)

// survivors returns the cluster view's surviving endpoints, refusing a view
// with fewer than two, on which no traffic pattern has a pair to run.
func survivors(c *core.Cluster) ([]topo.NodeID, error) {
	eps := c.AliveEndpoints()
	if len(eps) < 2 {
		return nil, fmt.Errorf("runner: need ≥2 endpoints, %d of %d survive", len(eps), c.Comp.NumEndpoints())
	}
	return eps, nil
}

// AlltoallPacketShare measures the packet-level alltoall bandwidth share of
// the cluster's injection bandwidth by running nShifts sampled shift
// iterations as parallel jobs (one simulation per shift, all sharing the
// compiled network and routing table). The shift sequence matches the
// serial netsim.AlltoallShare for equal seeds, and under the deterministic
// default routing (LeastQueued, no UGAL) the share is bit-identical to the
// serial sweep. Stochastic configs (RandomCandidate, UGAL) draw from a
// per-shift RNG here instead of one generator threaded across shifts, so
// they stay deterministic for any worker count but are not comparable
// draw-for-draw with the serial API.
//
// cfg.Shards flows through to every simulation: the sharded engine's
// Result is bit-identical for any shard count, so shares from this
// function (and PermutationSweepGBps, ResilienceSweep) are invariant
// across both worker count and shard count.
func (p *Pool) AlltoallPacketShare(c *core.Cluster, cfg netsim.Config, bytes int64, nShifts int, seed int64) (float64, error) {
	// On a degraded cluster view the alltoall runs among the surviving
	// endpoints over the fault-masked routing table.
	eps, err := survivors(c)
	if err != nil {
		return 0, err
	}
	nEp := len(eps)
	shifts := netsim.SampleShifts(nEp, nShifts, seed)
	inj := c.SimInjectionGBps()
	jobs := make([]Job, len(shifts))
	for i, shift := range shifts {
		jobCfg := cfg
		jobCfg.Seed = JobSeed(cfg.Seed, i) // decorrelate stochastic routing per shift
		jobCfg.Metrics = p.obsReg          // engine series join the pool's scrape (nil = off)
		jobs[i] = Job{
			Name: fmt.Sprintf("alltoall-shift%d", shift),
			Run: func(ctx *Ctx) (any, error) {
				res, err := netsim.New(c.Comp, c.Table, jobCfg).Run(
					netsim.ShiftFlows(eps, shift, bytes))
				if err != nil {
					return nil, err
				}
				perEp := res.AggregateGBps() / float64(nEp)
				return perEp / inj, nil
			},
		}
	}
	shares, err := Float64s(p.Run(jobs))
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	return sum / float64(len(shares)), nil
}

// AlltoallFlowShare measures the flow-level alltoall bandwidth share of
// the cluster's injection bandwidth by solving nShifts sampled shift
// permutations as parallel jobs — the fast path for the paper's
// large-cluster (16,384-accelerator) Table II numbers, where the packet
// sweep is out of reach. The shift sequence and the harmonic-mean
// aggregation match the serial flowsim AlltoallShareOver; each job gets a
// fresh solver over the shared compiled network and routing table plus a
// decorrelated path-sampling seed, so the result is bit-identical for any
// worker count (it is not draw-for-draw comparable with the serial API,
// whose single solver carries parallel-link round-robin cursors across
// shifts).
//
// The shared table is pre-warmed in parallel before the fan-out: every
// shift touches every destination, so cold jobs would race to build the
// same distance vectors (the lock-free cache tolerates but duplicates that
// work).
func (p *Pool) AlltoallFlowShare(c *core.Cluster, cfg flowsim.Config, nShifts int, seed uint64) (float64, error) {
	eps, err := survivors(c)
	if err != nil {
		return 0, err
	}
	nEp := len(eps)
	c.Table.PrecomputeParallel(eps, p.workers)
	if cfg.ValiantPaths > 0 {
		// Valiant detours route via random switch intermediates, so their
		// head segments need per-switch vectors too.
		c.Table.PrecomputeParallel(c.Comp.Switches, p.workers)
	}
	shifts := flowsim.SampleShifts(nEp, nShifts, seed)
	jobs := make([]Job, len(shifts))
	for i, shift := range shifts {
		jobCfg := cfg
		jobCfg.Seed = uint64(JobSeed(int64(cfg.Seed), i)) // decorrelate path sampling per shift
		jobs[i] = Job{
			Name: fmt.Sprintf("alltoall-flow-shift%d", shift),
			Run: func(ctx *Ctx) (any, error) {
				solver := flowsim.New(c.Comp, c.Table, jobCfg)
				rates, err := solver.Solve(flowsim.ShiftFlows(eps, shift))
				p.flushFlowStats(solver.Stats())
				if err != nil {
					return nil, err
				}
				mean := 0.0
				for _, r := range rates {
					mean += r
				}
				mean /= float64(len(rates))
				if mean <= 0 {
					return nil, fmt.Errorf("runner: zero-rate shift %d", shift)
				}
				return mean, nil
			},
		}
	}
	means, err := Float64s(p.Run(jobs))
	if err != nil {
		return 0, err
	}
	// Harmonic mean over iterations = effective sustained bandwidth (the
	// paper's barrier-free balanced-shift alltoall).
	sumInv := 0.0
	for _, m := range means {
		sumInv += 1 / m
	}
	return float64(len(means)) / sumInv / c.SimInjectionGBps(), nil
}

// PermutationSweepGBps runs nPerms independent random-permutation packet
// simulations as parallel jobs under the given config and returns the
// concatenated per-endpoint receive bandwidths (the Fig. 12 distribution
// with more samples). Permutations and engine seeds derive only from the
// explicit seed/cfg arguments (job index included), so the distribution is
// identical for any worker count and any pool base seed. A degraded view
// with fewer than two surviving endpoints is refused before simulating.
func (p *Pool) PermutationSweepGBps(c *core.Cluster, cfg netsim.Config, bytes int64, nPerms int, seed int64) ([]float64, error) {
	if _, err := survivors(c); err != nil {
		return nil, err
	}
	if nPerms <= 0 {
		nPerms = 1
	}
	jobs := make([]Job, nPerms)
	for i := range jobs {
		jobCfg := cfg
		jobCfg.Seed = JobSeed(cfg.Seed, i)
		jobCfg.Metrics = p.obsReg
		permSeed := JobSeed(seed, i)
		jobs[i] = Job{
			Name: fmt.Sprintf("permutation-%d", i),
			Run: func(ctx *Ctx) (any, error) {
				return c.PermutationGBpsCfg(jobCfg, bytes, rand.New(rand.NewSource(permSeed)))
			},
		}
	}
	results := p.Run(jobs)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	var all []float64
	for _, r := range results {
		all = append(all, r.Value.([]float64)...)
	}
	return all, nil
}

// PermutationStats summarizes a Fig. 12 receive-bandwidth distribution
// in GB/s: its sample count, extremes, quartiles and mean.
type PermutationStats struct {
	N                             int
	Min, P25, P50, P75, Max, Mean float64
}

// SummarizePermutation sorts bws in place and returns the Fig. 12
// statistics hxsim, hxd and the paper benchmark report; the quartiles
// index the sorted samples at n/4, n/2 and 3n/4, and the mean sums them in
// sorted order.
func SummarizePermutation(bws []float64) PermutationStats {
	n := len(bws)
	if n == 0 {
		return PermutationStats{}
	}
	sort.Float64s(bws)
	mean := 0.0
	for _, b := range bws {
		mean += b
	}
	return PermutationStats{
		N: n, Min: bws[0], P25: bws[n/4], P50: bws[n/2], P75: bws[3*n/4], Max: bws[n-1],
		Mean: mean / float64(n),
	}
}

// flushFlowStats publishes one solver's cumulative work counters (no-op
// when observability is off). Solvers are per-job, so each flush adds a
// full solver lifetime; called from worker goroutines (counters are
// atomic).
func (p *Pool) flushFlowStats(st flowsim.SolveStats) {
	reg := p.obsReg
	if reg == nil {
		return
	}
	reg.Counter("flowsim_heap_pops_total", "", "link-saturation events popped by water-filling").Add(st.HeapPops)
	reg.Counter("flowsim_rekeys_total", "", "lazy heap re-keys (saturation level moved after push)").Add(st.ReKeys)
	reg.Counter("flowsim_saturations_total", "", "links frozen at their max-min saturation level").Add(st.Saturations)
	reg.Counter("flowsim_subflows_total", "", "subflows water-filled across all solves").Add(st.Subflows)
}
