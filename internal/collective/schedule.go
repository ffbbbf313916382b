package collective

import "math"

// Params holds the alpha-beta cost model parameters of §V-A2. Beta is the
// time per byte of each network interface (1/50 ns/B for 400 Gb/s); a
// plane has NICs interfaces (four for HxMesh/torus accelerators, one per
// plane for fat tree and Dragonfly endpoints).
type Params struct {
	AlphaNS       float64 // per-round latency
	BetaNSPerByte float64 // per-interface serialization time per byte
	NICs          int     // interfaces usable by the algorithm
}

// DefaultParams mirrors the paper's case-study accelerator: 400 Gb/s
// links, four interfaces per plane, ~1 µs per communication round
// (propagation + switching + protocol overhead).
func DefaultParams() Params {
	return Params{AlphaNS: 1000, BetaNSPerByte: 1.0 / 50.0, NICs: 4}
}

// RingAllreduceTime is the unidirectional pipelined ring (§V-A2b):
// T ≈ 2pα + 2Sβ, bandwidth-optimal for one interface.
func RingAllreduceTime(p int, bytes float64, pr Params) float64 {
	return 2*float64(p)*pr.AlphaNS + 2*bytes*pr.BetaNSPerByte
}

// BidirRingAllreduceTime splits the data over both ring directions:
// T ≈ 2pα + Sβ (§V-A2b).
func BidirRingAllreduceTime(p int, bytes float64, pr Params) float64 {
	return 2*float64(p)*pr.AlphaNS + bytes*pr.BetaNSPerByte
}

// TwoRingsAllreduceTime uses two bidirectional rings mapped on the two
// edge-disjoint Hamiltonian cycles, exploiting all four interfaces:
// T ≈ 2pα + Sβ/2 (§V-A2b).
func TwoRingsAllreduceTime(p int, bytes float64, pr Params) float64 {
	return 2*float64(p)*pr.AlphaNS + bytes*pr.BetaNSPerByte/2
}

// Torus2DAllreduceTime is the two-dimensional algorithm of §V-A2c
// (reduce-scatter on rows, allreduce on columns, allgather on rows, two
// transposed instances in parallel on half the data each). The paper
// prints T ≈ 4√p·α + Sβ(1+2√p)/(4√p), whose bandwidth term equals the
// two-rings algorithm — contradicting the surrounding text ("the torus
// algorithm, which is 2x less bandwidth-efficient") and Fig. 13, where
// rings win for large messages. We therefore use the 2x-less-efficient
// form T ≈ 4√p·α + Sβ(1+2√p)/(2√p), which reproduces both the text and
// the figure: √p latency (beats the rings' p·α at small sizes) and half
// the asymptotic bandwidth.
func Torus2DAllreduceTime(p int, bytes float64, pr Params) float64 {
	sq := math.Sqrt(float64(p))
	return 4*sq*pr.AlphaNS + bytes*pr.BetaNSPerByte*(1+2*sq)/(2*sq)
}

// TreeAllreduceTime is the binomial tree for small data (§V-A2a):
// T ≈ log2(p)(2α + 2Sβ) (reduce + broadcast).
func TreeAllreduceTime(p int, bytes float64, pr Params) float64 {
	lg := math.Log2(float64(p))
	return lg * 2 * (pr.AlphaNS + bytes*pr.BetaNSPerByte)
}

// AllreduceBandwidth converts an allreduce time into algorithm bandwidth
// (bytes per ns == GB/s).
func AllreduceBandwidth(bytes, timeNS float64) float64 {
	if timeNS <= 0 {
		return 0
	}
	return bytes / timeNS
}

// OptimalAllreduceBandwidth is the theoretical optimum the paper reports
// shares against: half the injection bandwidth of the plane.
func OptimalAllreduceBandwidth(pr Params) float64 {
	return float64(pr.NICs) / pr.BetaNSPerByte / 2
}

// AlltoallTime models the balanced-shift alltoall (§V-A1a): p−1 rounds of
// α plus the serialization of S(p−1) bytes through the plane's injection
// bandwidth derated by the topology's global-bandwidth share.
func AlltoallTime(p int, bytesPerPeer float64, share float64, pr Params) float64 {
	if share <= 0 {
		return math.Inf(1)
	}
	inj := float64(pr.NICs) / pr.BetaNSPerByte
	return float64(p-1)*pr.AlphaNS + bytesPerPeer*float64(p-1)/(inj*share)
}

// AlltoallBandwidth is the per-endpoint effective alltoall bandwidth for
// the message-size sweep of Fig. 11.
func AlltoallBandwidth(p int, bytesPerPeer float64, share float64, pr Params) float64 {
	t := AlltoallTime(p, bytesPerPeer, share, pr)
	return bytesPerPeer * float64(p-1) / t
}

// AllreduceAlgorithm identifies one of the modeled allreduce schedules.
type AllreduceAlgorithm uint8

const (
	// AlgoRing is the unidirectional pipelined ring.
	AlgoRing AllreduceAlgorithm = iota
	// AlgoBidirRing is the bidirectional pipelined ring.
	AlgoBidirRing
	// AlgoTwoRings uses both edge-disjoint Hamiltonian cycles.
	AlgoTwoRings
	// AlgoTorus2D is the two-dimensional latency-optimized algorithm.
	AlgoTorus2D
	// AlgoTree is the binomial tree (small messages).
	AlgoTree
)

func (a AllreduceAlgorithm) String() string {
	switch a {
	case AlgoRing:
		return "ring"
	case AlgoBidirRing:
		return "bidir-ring"
	case AlgoTwoRings:
		return "rings"
	case AlgoTorus2D:
		return "torus"
	case AlgoTree:
		return "tree"
	}
	return "unknown"
}

// AllreduceTime dispatches to the schedule model for the algorithm.
func AllreduceTime(a AllreduceAlgorithm, p int, bytes float64, pr Params) float64 {
	switch a {
	case AlgoRing:
		return RingAllreduceTime(p, bytes, pr)
	case AlgoBidirRing:
		return BidirRingAllreduceTime(p, bytes, pr)
	case AlgoTwoRings:
		return TwoRingsAllreduceTime(p, bytes, pr)
	case AlgoTorus2D:
		return Torus2DAllreduceTime(p, bytes, pr)
	case AlgoTree:
		return TreeAllreduceTime(p, bytes, pr)
	}
	return math.Inf(1)
}

// BestAllreduce returns the fastest algorithm for the given size, the
// multi-algorithm selection the paper advocates (§V-A2e).
func BestAllreduce(p int, bytes float64, pr Params) (AllreduceAlgorithm, float64) {
	best, bt := AlgoTree, math.Inf(1)
	for _, a := range []AllreduceAlgorithm{AlgoTree, AlgoRing, AlgoBidirRing, AlgoTwoRings, AlgoTorus2D} {
		if t := AllreduceTime(a, p, bytes, pr); t < bt {
			best, bt = a, t
		}
	}
	return best, bt
}
