package sched

import (
	"math"
	"math/rand"
	"slices"
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

// Regression for the shape-blind large-placement fallback: above maxAccels
// the share must still depend on (u, v), and the analytic regime must meet
// the flow regime continuously at the boundary.
func TestComputeShareBoundaryContinuity(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver shape estimates are slow")
	}
	// On 4×4 boards 8×8 (1,024 accels) is the last flow-solved square;
	// 9×9 upward uses the calibrated analytic bound.
	m := &CommSlowdown{BoardA: 4, BoardB: 4}
	inside := m.shapeShare(8, 8)  // flow estimate at the anchor
	outside := m.shapeShare(9, 9) // first analytic shape
	if inside <= 0 || outside <= 0 {
		t.Fatalf("non-positive shares: inside=%v outside=%v", inside, outside)
	}
	if outside >= inside {
		t.Fatalf("share must keep falling across the boundary: share(8,8)=%v share(9,9)=%v", inside, outside)
	}
	// Continuity: the calibrated bound evaluated AT the anchor shape equals
	// the flow estimate exactly (that is what the calibration pins), so the
	// first analytic step is within the bound's own step size.
	if rel := (inside - outside) / inside; rel > 0.35 {
		t.Fatalf("discontinuity at maxAccels boundary: share(8,8)=%v share(9,9)=%v (rel drop %v)", inside, outside, rel)
	}
	// Shape dependence above the cap — the old code returned one constant.
	s10 := m.shapeShare(10, 10)
	s12 := m.shapeShare(12, 12)
	if s10 == outside || s12 == s10 {
		t.Fatalf("large-shape shares are shape-blind: share(9,9)=%v share(10,10)=%v share(12,12)=%v", outside, s10, s12)
	}
	if !(s12 < s10 && s10 < outside) {
		t.Fatalf("large-shape shares not decreasing: %v, %v, %v", outside, s10, s12)
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

// TestContendedSlowdownGamma checks the property tryBackfill's isolation
// bound rests on: a job's stretched slowdown is non-decreasing in γ ≥ 1,
// compared as exact floats, so it is lowest at γ = 1 and a backfill that
// ends after the reservation at the isolation price ends after it at every
// contention price. The cases are random placements of up to 8×8 boards on
// 8×8 and 32×32 grids, under L1 groups of 2 and 16 boards, with shrunk
// elastic widths, comm fractions outside [0, 1], UpperPenalty unset, 2 and
// negative, and γ of 1, the next float above 1 and random values up to 64.
// γ below 1 prices like γ = 1.
func TestContendedSlowdownGamma(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	models := []*CommSlowdown{
		{BoardA: 2, BoardB: 2, GroupBoards: 2},
		{BoardA: 2, BoardB: 2, GroupBoards: 2, UpperPenalty: 2},
		{BoardA: 2, BoardB: 2, GroupBoards: 2, UpperPenalty: -1},
		{BoardA: 2, BoardB: 2, UpperPenalty: 2},
		{BoardA: 2, BoardB: 2},
	}
	ascending := func(n, width int) []int {
		xs := rng.Perm(width)[:n]
		slices.Sort(xs)
		return xs
	}
	for i := 0; i < 12000; i++ {
		width := []int{8, 32}[i%2]
		u, v := 1+rng.Intn(8), 1+rng.Intn(8)
		p := &alloc.Placement{Rows: ascending(u, width), Cols: ascending(v, width)}
		// Up to 4× the placed boards: an elastic job running shrunk.
		j := &jobState{tj: TraceJob{Boards: u * v << rng.Intn(3), Service: 1, CommFrac: 1.2*rng.Float64() - 0.1},
			remaining: 10 * rng.Float64(), overheadPending: rng.Float64()}
		s := &sim{cfg: Config{Slowdown: models[rng.Intn(len(models))]}, resTime: 20 * rng.Float64()}
		now := 10 * rng.Float64()
		iso := s.stretched(j, p, 1)
		gammas := []float64{1, math.Nextafter(1, 2), 1 + 63*rng.Float64()}
		slices.Sort(gammas)
		prev := iso
		for _, g := range gammas {
			got := s.stretched(j, p, g)
			if got < prev {
				t.Fatalf("case %d: rows %v cols %v %+v model %+v: slowdown %v at γ=%v below %v at a smaller γ",
					i, p.Rows, p.Cols, j.tj, *s.cfg.Slowdown, got, g, prev)
			}
			if s.endsAfterReservation(j, now, iso) && !s.endsAfterReservation(j, now, got) {
				t.Fatalf("case %d: late at the isolation price %v but not at γ=%v's %v", i, iso, g, got)
			}
			prev = got
		}
	}
	// γ below 1 clamps to 1 (contention never speeds a job up).
	m := &CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2}
	job := TraceJob{Boards: 16, Service: 1, CommFrac: 0.5}
	p := spreadPlacement(4, 4, 4)
	if got, want := m.ContendedSlowdown(p, job, 0.5), m.ContendedSlowdown(p, job, 1); got != want {
		t.Fatalf("gamma<1 must clamp: %v vs %v", got, want)
	}
}
