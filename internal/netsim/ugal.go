package netsim

import (
	"math/rand"

	"hammingmesh/internal/topo"
)

// ugalCandidates is the number of random intermediates considered per
// packet.
const ugalCandidates = 2

// ugalBias scales the minimal-path backlog before comparison: the classic
// UGAL setting, counting the minimal path at half weight since the detour
// path is roughly twice as long.
const ugalBias = 2

// ugalState is carried per packet: the chosen intermediate and whether it
// has been reached. mid < 0 means minimal routing.
type ugalState struct {
	mid     int32
	reached bool
}

// chooseUGAL decides the intermediate node for a packet injected at src
// toward dst, or -1 for minimal routing (UGAL-style non-minimal adaptive
// routing, Kim et al.; the paper runs UGAL-L for Dragonfly in SST). It
// compares the backlog of the best minimal output against the backlog of
// the best output toward each of ugalCandidates random intermediate
// switches (Valiant detours); the packet takes a detour when the minimal
// path is at least ugalBias (2) times more backlogged.
func (s *Sim) chooseUGAL(src, dst int32, rng *rand.Rand) int32 {
	if !s.cfg.UGAL {
		return -1
	}
	minQ := s.bestQueue(src, dst)
	bestMid := int32(-1)
	bestQ := minQ * ugalBias
	for k := 0; k < ugalCandidates; k++ {
		// On a degraded fabric, sample intermediates weighted by their
		// live-port counts instead of uniformly: dead switches (weight 0)
		// are never proposed and heavily masked regions are proposed
		// rarely, so every candidate draw contributes non-minimal path
		// diversity instead of being rejected. The pristine fabric keeps
		// the uniform sampler (bit-identical golden outputs).
		mid := s.randomSwitch(rng)
		if mid < 0 || mid == src || mid == dst {
			continue
		}
		// A live-port-weighted switch can still be cut off from the
		// destination through a distant partition; the destination's
		// (already cached) distance vector is exact for the symmetric
		// masks the fault samplers produce. For hand-built asymmetric
		// masks (FailPortDir) the arrive fallback below still recovers.
		if s.mask != nil && s.table.Dist(topo.NodeID(dst))[mid] < 0 {
			continue
		}
		q := s.bestQueue(src, mid)
		if q < bestQ {
			bestQ = q
			bestMid = mid
		}
	}
	return bestMid
}

// bestQueue is the smallest output backlog among minimal candidates.
func (s *Sim) bestQueue(at, toward int32) float64 {
	var buf [64]int32
	best := -1.0
	for _, ci := range s.table.AppendCandidates(buf[:0], at, topo.NodeID(toward)) {
		q := float64(s.channels[ci].queuedB)
		if best < 0 || q < best {
			best = q
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// randomSwitch picks a random switch node from the compiled switch index:
// uniformly on the pristine fabric, weighted by per-switch live-port
// counts on a degraded one (see weightedSwitch).
func (s *Sim) randomSwitch(rng *rand.Rand) int32 {
	sw := s.comp.Switches
	if len(sw) == 0 {
		return -1
	}
	if s.mask != nil {
		return s.weightedSwitch(rng)
	}
	return int32(sw[rng.Intn(len(sw))])
}

// weightedSwitch samples a switch with probability proportional to its
// live (unmasked) port count — the per-region weighting that replaces
// rejection-sampling dead intermediates on degraded fabrics. The
// cumulative weights are built lazily on first use (one pass over the
// switch ports) and shared by every draw of the simulation.
func (s *Sim) weightedSwitch(rng *rand.Rand) int32 {
	if s.ugalCum == nil {
		s.buildSwitchWeights()
	}
	total := s.ugalCum[len(s.ugalCum)-1]
	if total == 0 {
		return -1 // every switch is fully masked
	}
	pick := int32(rng.Intn(int(total)))
	// Binary search for the first cumulative weight above pick.
	lo, hi := 0, len(s.ugalCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ugalCum[mid] > pick {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int32(s.comp.Switches[lo])
}

// buildSwitchWeights fills ugalCum with the cumulative live-port counts of
// the compiled switch index under the simulation's mask.
func (s *Sim) buildSwitchWeights() {
	cum := make([]int32, len(s.comp.Switches))
	run := int32(0)
	for i, sw := range s.comp.Switches {
		off, end := s.comp.PortRange(int32(sw))
		for pid := off; pid < end; pid++ {
			if !s.mask.Get(pid) {
				run++
			}
		}
		cum[i] = run
	}
	s.ugalCum = cum
}
