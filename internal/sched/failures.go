package sched

import (
	"math"
	"sort"

	"hammingmesh/internal/faults"
	"hammingmesh/internal/topo"
)

// FailEvent is one board failure of a background outage process.
type FailEvent struct {
	// Time is the failure time in hours.
	Time float64
	// Board is the failed board's (bx, by) grid coordinate.
	Board [2]int
}

// Failures is a pre-sampled board-outage process: Poisson outage times,
// each outage taking out a region of boards at one instant. Independent
// board failures (NewFailures) are 1×1 outages cycling through a board
// order; correlated bursts (NewBursts) take out a BurstShape region at a
// seeded anchor. The process is sampled once at the highest rate a sweep
// will use, and Thin extracts the outages active at any milder rate by
// Poisson thinning: each outage carries a uniform mark and is kept at rate
// r when its mark is at most r/maxRate. Under one seed a higher rate
// therefore replays every outage of a lower one and adds more — nesting
// is what makes goodput-vs-MTBF and goodput-vs-burst-rate curves measure
// degradation rather than sampling noise (the guarantee the link-fault
// samplers in internal/faults give resilience sweeps).
type Failures struct {
	outages []outage // ascending by time, sampled at maxRate
	maxRate float64  // outages/hour at the highest rate the caller thins to
}

// outage is one sampled outage: its time, the boards it takes out and its
// thinning mark u, uniform in [0, 1).
type outage struct {
	t      float64
	boards [][2]int
	u      float64
}

// BurstShape is the board-region footprint of one correlated failure burst:
// a W×H block of boards anchored at a seeded position. {4, 1} models a rack
// segment (four boards on one power feed), {X, 1} a whole row outage. The
// region is clipped at the grid edges — racks are physical, outages do not
// wrap — so bursts anchored near a boundary kill fewer boards.
type BurstShape struct{ W, H int }

// DefaultBurstShape is the 4×1 rack-segment burst.
func DefaultBurstShape() BurstShape { return BurstShape{W: 4, H: 1} }

func (s BurstShape) norm() BurstShape {
	if s.W < 1 {
		s.W = 4
	}
	if s.H < 1 {
		s.H = 1
	}
	return s
}

// orderSalt selects the seeded grid order burst anchors cycle through.
const orderSalt = 0x6f7264

// BoardSequence returns the seeded board order independent failures cycle
// through: the faults.BoardSalt order, whose prefixes are the boards
// faults.SampleFailedBoards powers off (the boards a resilience sweep
// fails first).
func BoardSequence(h *topo.HxMesh, seed int64) [][2]int {
	return faults.BoardOrder(h.Cfg.X, h.Cfg.Y, seed, faults.BoardSalt)
}

// NewFailures samples independent board failures over [0, horizonH) hours
// at maxRate failures/hour — boards/MTBF at the shortest MTBF the caller
// will thin to: each failure takes out the next board of order (a seeded
// permutation such as BoardSequence), cycling. An empty order yields an
// empty process.
func NewFailures(order [][2]int, horizonH, maxRate float64, seed int64) *Failures {
	if len(order) == 0 {
		return &Failures{}
	}
	return sample(schedRNG(seed, 0xfa11), horizonH, maxRate, func(i int) [][2]int {
		k := i % len(order)
		return order[k : k+1]
	})
}

// NewBursts samples correlated outages on an x×y grid over [0, horizonH)
// hours at maxRate bursts/hour: each burst takes out the shape region
// anchored at the next board of a seeded grid order (decorrelated from the
// independent-failure order), clipped at the grid edges. An empty grid
// yields an empty process.
func NewBursts(x, y int, shape BurstShape, horizonH, maxRate float64, seed int64) *Failures {
	if x < 1 || y < 1 {
		return &Failures{}
	}
	shape = shape.norm()
	anchors := faults.BoardOrder(x, y, int64(splitmix64(uint64(seed)^0xb52575)), orderSalt)
	return sample(schedRNG(seed, 0xb5257), horizonH, maxRate, func(i int) [][2]int {
		return regionBoards(x, y, anchors[i%len(anchors)], shape.W, shape.H)
	})
}

// sample draws the outage times of a Poisson process at maxRate over
// [0, horizonH) from r, outage i taking out boards(i), each with its
// thinning mark. A rate that is not positive and finite, or a
// non-positive horizon, yields an empty process.
func sample(r *rng, horizonH, maxRate float64, boards func(i int) [][2]int) *Failures {
	f := &Failures{}
	if !(maxRate > 0) || math.IsInf(maxRate, 1) || horizonH <= 0 {
		return f
	}
	f.maxRate = maxRate
	t := 0.0
	for i := 0; ; i++ {
		t += r.exp() / maxRate
		if t >= horizonH {
			break
		}
		f.outages = append(f.outages, outage{t: t, boards: boards(i), u: r.float64()})
	}
	return f
}

// Sampled returns the number of outages sampled at the maximum rate.
func (f *Failures) Sampled() int { return len(f.outages) }

// Thin returns the board failures of the outages active at rate
// outages/hour (at most the sampling rate; boards/MTBF for independent
// failures), ascending by time: each kept outage expands to one FailEvent
// per board it takes out, in region order. Under one seed the kept outage
// sets are nested across rates, so the list at a lower rate is a
// subsequence of the list at a higher one. A non-positive rate means no
// failures.
func (f *Failures) Thin(rate float64) []FailEvent {
	if rate <= 0 || f.maxRate <= 0 {
		return nil
	}
	keep := rate / f.maxRate
	var out []FailEvent
	for _, o := range f.outages {
		if o.u > keep {
			continue
		}
		for _, b := range o.boards {
			out = append(out, FailEvent{Time: o.t, Board: b})
		}
	}
	return out
}

// Validate checks that outages are sorted by time (defensive; sample sorts
// by construction).
func (f *Failures) Validate() bool {
	return sort.SliceIsSorted(f.outages, func(i, j int) bool { return f.outages[i].t < f.outages[j].t })
}

// regionBoards lists the boards of a w×h region anchored at a on an x×y
// grid, clipped at the edges, in row-major order. It mirrors the
// network-level faults.Builder.FailBoardRegion clipping convention (the
// two are pinned equal by TestRegionBoardsMatchesFaultsBuilder), so a
// scheduler burst and a FaultSet rack outage kill the same board sets.
func regionBoards(x, y int, a [2]int, w, h int) [][2]int {
	out := make([][2]int, 0, w*h)
	for dy := 0; dy < h; dy++ {
		for dx := 0; dx < w; dx++ {
			bx, by := a[0]+dx, a[1]+dy
			if bx < 0 || by < 0 || bx >= x || by >= y {
				continue
			}
			out = append(out, [2]int{bx, by})
		}
	}
	return out
}

// MergeFailures merges two time-sorted failure event lists into one sorted
// list. The merge is stable and a-first at equal times, so merging an
// independent process with an (empty) burst process reproduces the
// independent list exactly — the bit-identical-golden guarantee for
// zero-burst configs.
func MergeFailures(a, b []FailEvent) []FailEvent {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]FailEvent, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Time < a[i].Time {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// splitmix64 decorrelates seeds (same finalizer as internal/faults).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is the package's tiny deterministic generator (no math/rand here so
// failure processes stay stable across Go releases, like the faults
// samplers).
type rng uint64

func schedRNG(seed int64, salt uint64) *rng {
	r := rng(splitmix64(uint64(seed) ^ salt))
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return splitmix64(uint64(*r))
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns a unit-mean exponential draw.
func (r *rng) exp() float64 { return -math.Log(1 - r.float64()) }
