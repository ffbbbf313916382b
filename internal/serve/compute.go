package serve

import (
	"encoding/json"
	"fmt"

	"hammingmesh/internal/core"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/sched"
)

// Computer executes canonical requests on a shared runner.Pool. Every
// seeded draw derives from the canonical config only, so — by the repo's
// worker/shard invariance contract — the marshalled result bytes are a
// pure function of the canonical config: exactly what the content-
// addressed cache needs.
type Computer struct {
	pool *runner.Pool
}

// NewComputer wraps a pool.
func NewComputer(pool *runner.Pool) *Computer { return &Computer{pool: pool} }

// ShareResult is the body of the bandwidth-share kinds (alltoall_flow,
// alltoall_packet, allreduce).
type ShareResult struct {
	Kind  string  `json:"kind"`
	Topo  string  `json:"topo"`
	Size  string  `json:"size"`
	Share float64 `json:"share"`
}

// PermutationResult summarizes the per-endpoint receive-bandwidth
// distribution of the permutation kind (the Fig. 12 statistics).
type PermutationResult struct {
	Kind      string  `json:"kind"`
	Topo      string  `json:"topo"`
	Size      string  `json:"size"`
	Endpoints int     `json:"endpoints"`
	MinGBps   float64 `json:"min_gbps"`
	P25GBps   float64 `json:"p25_gbps"`
	P50GBps   float64 `json:"p50_gbps"`
	P75GBps   float64 `json:"p75_gbps"`
	MaxGBps   float64 `json:"max_gbps"`
	MeanGBps  float64 `json:"mean_gbps"`
}

// ResilienceResult is the degradation curve of the resilience kind.
type ResilienceResult struct {
	Kind   string                   `json:"kind"`
	Topo   string                   `json:"topo"`
	Size   string                   `json:"size"`
	Points []runner.ResiliencePoint `json:"points"`
}

// SchedResult is the scheduler sweep of the sched kind.
type SchedResult struct {
	Kind   string              `json:"kind"`
	Topo   string              `json:"topo"`
	Size   string              `json:"size"`
	Points []runner.SchedPoint `json:"points"`
}

// Compute runs the canonical request and marshals its result into the
// deterministic JSON body that the cache stores and every equal request
// receives byte for byte.
func (cp *Computer) Compute(cn *Canon) ([]byte, error) {
	c, err := cp.pool.Cluster(cn.Topo, core.ClusterSize(cn.Size))
	if err != nil {
		return nil, err
	}
	// The fixed-fault kinds measure a degraded view; resilience samples
	// its own nested fault sequences inside the sweep.
	if cn.Kind != KindResilience && (cn.FailLinks > 0 || cn.FailBoards > 0) {
		fs, err := c.SampleFaults(cn.FailLinks, cn.FailBoards, cn.FailSeed)
		if err != nil {
			return nil, err
		}
		c = c.WithFaults(fs)
	}
	pktCfg := netsim.DefaultConfig()
	pktCfg.Seed = cn.Seed
	if cn.Credit {
		pktCfg.Mode = netsim.CreditFC
	}

	var v any
	switch cn.Kind {
	case KindAlltoallFlow:
		share, err := cp.pool.AlltoallFlowShare(c, c.FlowConfig(uint64(cn.Seed)), cn.Shifts, uint64(cn.Seed))
		if err != nil {
			return nil, err
		}
		v = ShareResult{Kind: cn.Kind, Topo: cn.Topo, Size: cn.Size, Share: share}
	case KindAlltoallPacket:
		share, err := cp.pool.AlltoallPacketShare(c, pktCfg, cn.Bytes, cn.Shifts, cn.Seed)
		if err != nil {
			return nil, err
		}
		v = ShareResult{Kind: cn.Kind, Topo: cn.Topo, Size: cn.Size, Share: share}
	case KindAllreduce:
		share, err := c.AllreduceShare(cn.Bytes)
		if err != nil {
			return nil, err
		}
		v = ShareResult{Kind: cn.Kind, Topo: cn.Topo, Size: cn.Size, Share: share}
	case KindPermutation:
		bws, err := cp.pool.PermutationSweepGBps(c, pktCfg, cn.Bytes, cn.Perms, cn.Seed)
		if err != nil {
			return nil, err
		}
		st := runner.SummarizePermutation(bws)
		v = PermutationResult{
			Kind: cn.Kind, Topo: cn.Topo, Size: cn.Size, Endpoints: st.N,
			MinGBps: st.Min, P25GBps: st.P25, P50GBps: st.P50,
			P75GBps: st.P75, MaxGBps: st.Max, MeanGBps: st.Mean,
		}
	case KindResilience:
		fracs := runner.ResilienceFracs(cn.FailLinks, cn.Steps)
		pts, err := cp.pool.ResilienceSweep(c, pktCfg, cn.Bytes, fracs, cn.Trials, cn.Shifts, cn.FailSeed, cn.FailBoards)
		if err != nil {
			return nil, err
		}
		v = ResilienceResult{Kind: cn.Kind, Topo: cn.Topo, Size: cn.Size, Points: pts}
	case KindSched:
		if c.Hx == nil || c.Grid == nil {
			return nil, fmt.Errorf("serve: sched needs a board grid, topo %q has none", cn.Topo)
		}
		// hxalloc's sweep, with each field hxd serves set from the request.
		spec := runner.DefaultSchedSpec()
		spec.Jobs, spec.HorizonH, spec.Trials, spec.Seed = cn.Jobs, cn.HorizonH, cn.Trials, cn.Seed
		spec.MTBFs, spec.CkptsH, spec.Policies = cn.MTBFs, cn.CkptsH, make([]sched.Policy, len(cn.Policies))
		for i, p := range cn.Policies {
			spec.Policies[i] = sched.Policy(p)
		}
		spec.Reserves, spec.Interferences = []bool{cn.Reserve}, []bool{cn.Interference}
		spec.Elastics, spec.Preempts = []bool{cn.Elastic}, []bool{cn.Preempt}
		spec.UpperPenalty = cn.UpperPenalty
		if spec.UpperPenalty == 0 {
			spec.UpperPenalty = -1 // the explicit-off sentinel; 0 would mean "default"
		}
		pts, err := cp.pool.SchedSweep(c, spec.Config(c))
		if err != nil {
			return nil, err
		}
		v = SchedResult{Kind: cn.Kind, Topo: cn.Topo, Size: cn.Size, Points: pts}
	default:
		return nil, fmt.Errorf("serve: unknown canonical kind %q", cn.Kind)
	}
	return json.Marshal(v)
}
