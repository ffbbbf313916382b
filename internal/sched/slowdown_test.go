package sched

import (
	"math"
	"testing"

	"hammingmesh/internal/alloc"
)

// contiguousPlacement builds a u×v placement occupying rows 0..u-1 and
// cols 0..v-1 — the most compact shape, zero upper-layer fraction under a
// wide group.
func contiguousPlacement(u, v int) *alloc.Placement {
	rows := make([]int, u)
	cols := make([]int, v)
	for i := range rows {
		rows[i] = i
	}
	for j := range cols {
		cols[j] = j
	}
	return &alloc.Placement{Job: 0, Rows: rows, Cols: cols}
}

// spreadPlacement builds a u×v placement with rows/cols spaced `stride`
// apart, crossing fat-tree groups once stride·u exceeds the group width.
func spreadPlacement(u, v, stride int) *alloc.Placement {
	rows := make([]int, u)
	cols := make([]int, v)
	for i := range rows {
		rows[i] = i * stride
	}
	for j := range cols {
		cols[j] = j * stride
	}
	return &alloc.Placement{Job: 0, Rows: rows, Cols: cols}
}

// Regression for the shape-blind large-placement fallback: above MaxAccels
// the share must still depend on (u, v), and the analytic regime must meet
// the flow regime continuously at the boundary.
func TestComputeShareBoundaryContinuity(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver shape estimates are slow")
	}
	// MaxAccels 64 on 2×2 boards: 4×4 (64 accels) is the last flow-solved
	// square; 5×5 upward uses the calibrated analytic bound.
	m := &CommSlowdown{BoardA: 2, BoardB: 2, MaxAccels: 64}
	inside := m.shapeShare(4, 4)  // flow estimate at the anchor
	outside := m.shapeShare(5, 5) // first analytic shape
	if inside <= 0 || outside <= 0 {
		t.Fatalf("non-positive shares: inside=%v outside=%v", inside, outside)
	}
	if outside >= inside {
		t.Fatalf("share must keep falling across the boundary: share(4,4)=%v share(5,5)=%v", inside, outside)
	}
	// Continuity: the calibrated bound evaluated AT the anchor shape equals
	// the flow estimate exactly (that is what the calibration pins), so the
	// first analytic step is within the bound's own step size.
	if rel := (inside - outside) / inside; rel > 0.35 {
		t.Fatalf("discontinuity at MaxAccels boundary: share(4,4)=%v share(5,5)=%v (rel drop %v)", inside, outside, rel)
	}
	// Shape dependence above the cap — the old code returned one constant.
	s66 := m.shapeShare(6, 6)
	s88 := m.shapeShare(8, 8)
	if s66 == outside || s88 == s66 {
		t.Fatalf("large-shape shares are shape-blind: share(5,5)=%v share(6,6)=%v share(8,8)=%v", outside, s66, s88)
	}
	if !(s88 < s66 && s66 < outside) {
		t.Fatalf("large-shape shares not decreasing: %v, %v, %v", outside, s66, s88)
	}
}

// Slowdown must be monotone non-decreasing in placement spread: pulling the
// same shape across more fat-tree groups can only cost more.
func TestSlowdownMonotoneInSpread(t *testing.T) {
	m := &CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2}
	job := TraceJob{Boards: 16, Service: 1, CommFrac: 0.5}
	prev := 0.0
	for _, stride := range []int{1, 2, 4, 8} {
		p := spreadPlacement(4, 4, stride)
		got := m.ContendedSlowdown(p, job, 1)
		if got < 1 {
			t.Fatalf("slowdown %v < 1 at stride %d", got, stride)
		}
		if got < prev-1e-12 {
			t.Fatalf("slowdown decreased with spread: stride %d gave %v after %v", stride, got, prev)
		}
		prev = got
	}
	// And strictly greater once the spread forces upper-layer crossings.
	compact := m.ContendedSlowdown(contiguousPlacement(4, 4), job, 1)
	spread := m.ContendedSlowdown(spreadPlacement(4, 4, 8), job, 1)
	if spread <= compact {
		t.Fatalf("spread placement %v not slower than compact %v", spread, compact)
	}
}

// Regression for the un-disableable penalty: negative disables, zero keeps
// the default of 1.
func TestUpperPenaltySentinel(t *testing.T) {
	job := TraceJob{Boards: 16, Service: 1, CommFrac: 0.5}
	p := spreadPlacement(4, 4, 8) // heavy upper-layer crossing under group=2

	def := &CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2}
	off := &CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2, UpperPenalty: -1}
	one := &CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2, UpperPenalty: 1}

	sDef := def.ContendedSlowdown(p, job, 1)
	sOff := off.ContendedSlowdown(p, job, 1)
	sOne := one.ContendedSlowdown(p, job, 1)
	if sDef != sOne {
		t.Fatalf("zero UpperPenalty must mean default 1: got %v vs %v", sDef, sOne)
	}
	if sOff >= sDef {
		t.Fatalf("negative UpperPenalty must disable the penalty: off=%v default=%v", sOff, sDef)
	}
	// Disabled penalty = pure shape term: compact and spread price equally.
	if a, b := off.ContendedSlowdown(contiguousPlacement(4, 4), job, 1), sOff; math.Abs(a-b) > 1e-12 {
		t.Fatalf("with penalty off, spread must not matter: compact=%v spread=%v", a, b)
	}
}

// γ monotonically stretches, and γ below 1 prices like γ = 1.
func TestContendedSlowdownGamma(t *testing.T) {
	m := &CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2}
	job := TraceJob{Boards: 16, Service: 1, CommFrac: 0.5}
	p := spreadPlacement(4, 4, 4)
	prev := 0.0
	for _, g := range []float64{1, 1.5, 2, 4} {
		got := m.ContendedSlowdown(p, job, g)
		if got < prev {
			t.Fatalf("contended slowdown not monotone in gamma: γ=%v gave %v after %v", g, got, prev)
		}
		prev = got
	}
	// γ below 1 clamps to 1 (contention never speeds a job up).
	if got, want := m.ContendedSlowdown(p, job, 0.5), m.ContendedSlowdown(p, job, 1); got != want {
		t.Fatalf("gamma<1 must clamp: %v vs %v", got, want)
	}
}
