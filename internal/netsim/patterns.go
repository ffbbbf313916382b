package netsim

import (
	"math/rand"

	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// ShiftFlows builds the balanced-shift permutation used by the paper's
// alltoall implementation: in iteration i, endpoint j sends to endpoint
// (j+i) mod p (§V-A1a). bytes is the per-peer message size.
func ShiftFlows(endpoints []topo.NodeID, shift int, bytes int64) []Flow {
	p := len(endpoints)
	flows := make([]Flow, 0, p)
	shift = ((shift % p) + p) % p
	if shift == 0 {
		return flows
	}
	for j := 0; j < p; j++ {
		flows = append(flows, Flow{Src: endpoints[j], Dst: endpoints[(j+shift)%p], Bytes: bytes})
	}
	return flows
}

// PermutationFlows builds random-permutation traffic: each endpoint sends
// to and receives from exactly one unique random peer (§V-A1b). Fixed
// points are removed by cyclic repair so no endpoint sends to itself.
func PermutationFlows(endpoints []topo.NodeID, bytes int64, rng *rand.Rand) []Flow {
	p := len(endpoints)
	perm := rng.Perm(p)
	// Repair fixed points by swapping with the next index cyclically.
	for i := 0; i < p; i++ {
		if perm[i] == i {
			j := (i + 1) % p
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	flows := make([]Flow, 0, p)
	for i := 0; i < p; i++ {
		if perm[i] == i { // p == 1 degenerate
			continue
		}
		flows = append(flows, Flow{Src: endpoints[i], Dst: endpoints[perm[i]], Bytes: bytes})
	}
	return flows
}

// RingNeighborFlows builds the steady-state traffic of a unidirectional
// pipelined ring: each node sends bytes to its successor. With
// bidirectional true, predecessor flows are added as well (each direction
// carrying bytes).
func RingNeighborFlows(ring []topo.NodeID, bytes int64, bidirectional bool) []Flow {
	p := len(ring)
	flows := make([]Flow, 0, 2*p)
	for i := 0; i < p; i++ {
		flows = append(flows, Flow{Src: ring[i], Dst: ring[(i+1)%p], Bytes: bytes})
		if bidirectional {
			flows = append(flows, Flow{Src: ring[i], Dst: ring[(i-1+p)%p], Bytes: bytes})
		}
	}
	return flows
}

// SampleShifts returns nShifts pseudo-random shift values in [1, p-1]
// (repeats allowed, matching the paper's sampled-iteration estimator). The
// serial AlltoallShare sweep and the runner-parallel sweep share this
// sequence, so their results are identical for equal seeds.
func SampleShifts(p, nShifts int, seed int64) []int {
	if nShifts <= 0 || nShifts > p-1 {
		nShifts = p - 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, nShifts)
	for k := range out {
		out[k] = 1 + rng.Intn(p-1)
	}
	return out
}

// AlltoallShareConcurrent estimates the global (alltoall) bandwidth share
// by simulating window concurrent shift iterations in one run: the
// paper's balanced-shift alltoall has no barriers, so several shifts are
// in flight at once and endpoints spread traffic over many destinations —
// essential on direct topologies (HyperX, Dragonfly, torus) where a
// single permutation cannot use the path diversity. bytesPerPeer is the
// per-destination message size; the share is per-endpoint delivered
// bandwidth over injectGBps.
func AlltoallShareConcurrent(c *simcore.Compiled, table *routing.Table, cfg Config, bytesPerPeer int64, window int, injectGBps float64, seed int64) (float64, error) {
	p := c.NumEndpoints()
	if window <= 0 || window > p-1 {
		window = min(16, p-1)
	}
	rng := rand.New(rand.NewSource(seed))
	var flows []Flow
	seen := make([]bool, p)
	for n := 0; n < window; {
		shift := 1 + rng.Intn(p-1)
		if seen[shift] {
			continue
		}
		seen[shift] = true
		n++
		flows = append(flows, ShiftFlows(c.Endpoints, shift, bytesPerPeer)...)
	}
	res, err := New(c, table, cfg).Run(flows)
	if err != nil {
		return 0, err
	}
	perEp := res.AggregateGBps() / float64(p)
	return perEp / injectGBps, nil
}

// AlltoallShare estimates the global (alltoall) bandwidth share of
// injection bandwidth by simulating nShifts sampled shift iterations one
// at a time and averaging the per-iteration delivered bandwidth (a lower
// bound: see AlltoallShareConcurrent for the unsynchronized measurement).
// Each endpoint injects through a single plane (4 links for HxMesh/torus
// endpoints, 1 for fat-tree/Dragonfly endpoints); injectGBps is the
// per-endpoint injection bandwidth the share is normalized against.
// Passing the cluster's shared table (may be nil) reuses its cached
// distance vectors across sweeps; the runner's
// AlltoallPacketShare parallelizes the same sweep.
func AlltoallShare(c *simcore.Compiled, table *routing.Table, cfg Config, bytes int64, nShifts int, injectGBps float64, seed int64) (float64, error) {
	return AlltoallShareOver(c, table, cfg, c.Endpoints, bytes, nShifts, injectGBps, seed)
}

// AlltoallShareOver is AlltoallShare restricted to a subset of endpoints —
// on a degraded fabric the alltoall runs among the surviving accelerators
// (see faults.FaultSet.SurvivingEndpoints).
func AlltoallShareOver(c *simcore.Compiled, table *routing.Table, cfg Config, endpoints []topo.NodeID, bytes int64, nShifts int, injectGBps float64, seed int64) (float64, error) {
	p := len(endpoints)
	sim := New(c, table, cfg)
	sum := 0.0
	shifts := SampleShifts(p, nShifts, seed)
	for _, shift := range shifts {
		res, err := sim.Run(ShiftFlows(endpoints, shift, bytes))
		if err != nil {
			return 0, err
		}
		perEp := res.AggregateGBps() / float64(p)
		sum += perEp / injectGBps
	}
	return sum / float64(len(shifts)), nil
}
