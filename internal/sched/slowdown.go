package sched

import (
	"sync"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/analysis"
	"hammingmesh/internal/flowsim"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// CommSlowdown stretches the communication share of a job by the bandwidth
// its placement delivers. A u×v placement forms a virtual sub-HxMesh with
// the network properties of a physical u×v HxMesh (§III-E), so the shape
// term is the alltoall share of that virtual mesh — estimated with the
// flow-level solver once per distinct shape per process, and shared by
// every model with the same board (shapes above maxAccels use the
// closed-form §III-A finite-mesh bound, calibrated to the flow estimate at
// the maxAccels boundary so the two regimes meet continuously).
// On top of the shape term, the concrete placement pays for its spread: the
// fraction of dimension-network traversals crossing the upper fat-tree
// layer (the Fig. 9 quantity) scales the communication cost by
// 1 + UpperPenalty·fraction.
//
//	slowdown = (1 − commFrac) + commFrac · (1/share) · (1 + UpperPenalty·upperFrac)
//
// where a single board, whose traffic stays on its PCB mesh, has share 1:
// the reference, so an ideally placed job runs at slowdown ≈ 1 and
// anything worse pays proportionally. A model is safe for concurrent use:
// one is shared across all trials of a sweep.
type CommSlowdown struct {
	// BoardA, BoardB are the board dimensions in accelerators (2×2 for
	// Hx2Mesh, 4×4 for Hx4Mesh). Zeros mean 2×2.
	BoardA, BoardB int
	// GroupBoards is the L1 fat-tree group width for the upper-layer
	// fraction (zero means alloc.GroupBoards).
	GroupBoards int
	// UpperPenalty scales the upper-layer crossing cost. Zero means the
	// default of 1; a negative value explicitly disables the penalty
	// (upper-layer crossings become free). The negative sentinel keeps
	// "unset" and "off" distinguishable — the zero value of an options
	// struct must mean "default", never silently forbid a setting.
	UpperPenalty float64
}

const (
	// maxAccels caps the size of the virtual mesh the flow solver
	// evaluates; larger shapes use the calibrated analytic bound.
	maxAccels = 1024
	// shapeShifts is the number of sampled alltoall shifts per shape
	// estimate.
	shapeShifts = 4
)

// NewCommSlowdown returns the default communication-slowdown model for an
// a×b-accelerator board.
func NewCommSlowdown(a, b int) *CommSlowdown {
	return &CommSlowdown{BoardA: a, BoardB: b}
}

func (m *CommSlowdown) defaults() (a, b, group int, penalty float64) {
	a, b = m.BoardA, m.BoardB
	if a <= 0 {
		a = 2
	}
	if b <= 0 {
		b = 2
	}
	group = m.GroupBoards
	if group <= 0 {
		group = alloc.GroupBoards
	}
	// Zero means unset (default 1); negative is the explicit "disabled"
	// sentinel. Coercing every non-positive value to 1 — the old behaviour
	// — made the penalty impossible to turn off.
	penalty = m.UpperPenalty
	if penalty == 0 {
		penalty = 1
	} else if penalty < 0 {
		penalty = 0
	}
	return
}

// ContendedSlowdown is the factor (≥ 1) by which placement p stretches
// the job's service time. gamma is the cross-job contention factor of the
// job's upper-layer traffic (from Interference; values below 1 count as
// 1) and scales the upper-layer crossing cost, so gamma = 1 is the
// isolation price.
func (m *CommSlowdown) ContendedSlowdown(p *alloc.Placement, job TraceJob, gamma float64) float64 {
	cf := job.CommFrac
	if cf <= 0 {
		return 1
	}
	if cf > 1 {
		cf = 1
	}
	if gamma < 1 {
		gamma = 1
	}
	_, _, group, penalty := m.defaults()
	share := m.shapeShare(p.U(), p.V())
	if share <= 0 {
		share = 1e-3 // defensive; flowsim shares are strictly positive
	}
	// The reference is the single-board share, exactly 1 (computeShare).
	commCost := (1 / share) * (1 + penalty*gamma*alloc.UpperLayerFraction(p, alloc.TrafficAlltoall, group))
	if commCost < 1 {
		commCost = 1
	}
	return (1 - cf) + cf*commCost
}

// shapeKey is everything a shape share depends on once defaults are
// filled in: the board dimensions and the shape. GroupBoards and
// UpperPenalty price the spread, not the shape, so models differing only
// in them share entries.
type shapeKey struct {
	a, b, u, v int
}

type shapeSlot struct {
	once  sync.Once
	share float64
}

// shapeShares memoizes shape shares for the whole process (shapeKey →
// *shapeSlot), so every model reuses any shape the process has already
// solved: each hxd request's model, a sweep's default model, hxalloc's
// model, the examples' models. hxd builds a fresh model per sched request,
// so a memo held by each model would re-solve every shape, up to the
// 1,024-endpoint mesh, on every miss.
//
// It is a package variable that library code mutates, on purpose, like
// simcore.Of's interning cache: it memoizes a pure function. A share is a
// deterministic function of its key (a private solver, flowsim seed 1), so
// which caller or goroutine solves a shape first cannot change a bit, and
// no caller or test can observe another's entries except through timing.
// It is bounded by the distinct (board type, shape) pairs: at most X·Y
// entries per board type, 4,096 on the large grid, each a float and a
// sync.Once. A memo threaded from
// runner.Pool instead would add an exported type, a field, and wiring in
// serve and runner for the same effect.
var shapeShares sync.Map

// shapeShare returns the memoized alltoall bandwidth share (fraction of
// injection) of a virtual u×v sub-HxMesh, computing it on first use.
// Concurrent callers for the same shape share one computation.
func (m *CommSlowdown) shapeShare(u, v int) float64 {
	a, b, _, _ := m.defaults()
	return shapeKey{a: a, b: b, u: u, v: v}.share()
}

func (k shapeKey) share() float64 {
	e, ok := shapeShares.Load(k)
	if !ok {
		e, _ = shapeShares.LoadOrStore(k, new(shapeSlot))
	}
	slot := e.(*shapeSlot)
	slot.once.Do(func() { slot.share = k.computeShare() })
	return slot.share
}

func (k shapeKey) computeShare() float64 {
	if k.u*k.v <= 1 {
		// Single board: communication stays on the PCB mesh at full
		// bandwidth; the shape term is the reference itself.
		return 1
	}
	if k.u*k.v*k.a*k.b > maxAccels {
		// Large shapes: the closed-form finite-mesh bound, calibrated so
		// it meets the flow estimate at the maxAccels boundary. The old
		// code returned the shape-independent asymptotic AlltoallShare(a,b)
		// here, pricing every large placement identically — exactly where
		// spread matters most.
		return analysis.AlltoallShareMesh(k.a, k.b, k.u, k.v) * k.boundaryScale()
	}
	return k.flowShare()
}

// flowShare is the flow-solver estimate of one virtual mesh's alltoall
// share (the small-shape path).
func (k shapeKey) flowShare() float64 {
	h := topo.NewHxMesh(k.a, k.b, k.u, k.v, topo.DefaultLinkParams())
	c := simcore.Compile(h.Network) // throwaway: skip the interning cache
	s := flowsim.New(c, nil, flowsim.Config{Seed: 1})
	inj := 4 * topo.DefaultLinkParams().GBps
	share, err := s.AlltoallShareOver(c.Endpoints, shapeShifts, inj, 1)
	if err != nil {
		// The virtual mesh is always connected; treat a solver failure as
		// the analytic bound rather than poisoning the schedule.
		return analysis.AlltoallShareMesh(k.a, k.b, k.u, k.v)
	}
	return share
}

// boundaryScale calibrates the analytic bound against the flow solver: the
// largest square shape still below maxAccels anchors the ratio
// flowShare/analyticBound, so the two regimes agree (up to the solver's
// sampling noise) where they hand over. The anchor's flow share is the
// memoized share of that square, which computeShare flow-solves.
func (k shapeKey) boundaryScale() float64 {
	s := 1
	for (s+1)*(s+1)*k.a*k.b <= maxAccels {
		s++
	}
	if s < 2 {
		// No multi-board shape fits the budget: nothing to anchor to;
		// use the uncalibrated bound.
		return 1
	}
	bound := analysis.AlltoallShareMesh(k.a, k.b, s, s)
	anchor := k
	anchor.u, anchor.v = s, s
	flow := anchor.share()
	if bound <= 0 || flow <= 0 {
		return 1
	}
	return flow / bound
}
