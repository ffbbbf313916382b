package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimpleAllocation(t *testing.T) {
	g := NewGrid(4, 4)
	p, ok := g.Allocate(0, 2, 2, Options{})
	if !ok {
		t.Fatal("2x2 on empty 4x4 failed")
	}
	if p.U() != 2 || p.V() != 2 {
		t.Fatalf("placement %dx%d, want 2x2", p.U(), p.V())
	}
	if got := g.AllocatedBoards(); got != 4 {
		t.Errorf("allocated %d boards, want 4", got)
	}
	if err := g.Validate([]*Placement{p}); err != nil {
		t.Error(err)
	}
}

func TestFillExactly(t *testing.T) {
	// Four 2x2 jobs exactly fill a 4x4 grid.
	g := NewGrid(4, 4)
	var ps []*Placement
	for i := int32(0); i < 4; i++ {
		p, ok := g.Allocate(i, 2, 2, Options{})
		if !ok {
			t.Fatalf("job %d failed with %d boards free", i, 16-g.AllocatedBoards())
		}
		ps = append(ps, p)
	}
	if g.Utilization() != 1.0 {
		t.Errorf("utilization %.2f, want 1.0", g.Utilization())
	}
	if err := g.Validate(ps); err != nil {
		t.Error(err)
	}
	if _, ok := g.Allocate(9, 1, 1, Options{}); ok {
		t.Error("allocation on full grid succeeded")
	}
}

func TestNonConsecutiveSubnetwork(t *testing.T) {
	// Paper Fig. 5: with failures, a job can use non-consecutive boards as
	// long as rows share column coordinates.
	g := NewGrid(4, 4)
	g.Fail(1, 0)
	g.Fail(2, 1)
	g.Fail(1, 2)
	g.Fail(2, 3)
	// Columns 0 and 3 are free in every row: a 4x2 job must fit.
	p, ok := g.Allocate(0, 4, 2, Options{})
	if !ok {
		t.Fatal("4x2 with column failures not placed")
	}
	if p.U() != 4 || p.V() != 2 {
		t.Fatalf("got %dx%d", p.U(), p.V())
	}
	for _, c := range p.Cols {
		if c != 0 && c != 3 {
			t.Errorf("unexpected column %d", c)
		}
	}
}

func TestTransposeHeuristic(t *testing.T) {
	g := NewGrid(4, 2)
	// A 4x2 request cannot fit (only 2 rows) but its transpose 2x4 can.
	if _, ok := g.Allocate(0, 4, 2, Options{}); ok {
		t.Fatal("4x2 should not fit a 4x2-wide, 2-tall grid without transpose")
	}
	if _, ok := g.Allocate(0, 4, 2, Options{Transpose: true}); !ok {
		t.Error("transpose heuristic did not place 4x2 as 2x4")
	}
}

func TestAspectRatioHeuristic(t *testing.T) {
	g := NewGrid(8, 2)
	// 4x4 = 16 boards fits only as 2x8.
	if _, ok := g.Allocate(0, 4, 4, Options{Transpose: true}); ok {
		t.Fatal("4x4 should not fit in 8x2")
	}
	p, ok := g.Allocate(0, 4, 4, Options{Transpose: true, AspectRatio: true})
	if !ok {
		t.Fatal("aspect-ratio heuristic did not reshape 4x4 to 2x8")
	}
	if p.U()*p.V() != 16 {
		t.Errorf("reshaped to %dx%d, lost boards", p.U(), p.V())
	}
}

func TestFailEvictsJob(t *testing.T) {
	g := NewGrid(4, 4)
	p, _ := g.Allocate(3, 2, 2, Options{})
	evicted := g.Fail(p.Cols[0], p.Rows[0])
	if evicted != 3 {
		t.Errorf("evicted job %d, want 3", evicted)
	}
	if g.AllocatedBoards() != 0 {
		t.Error("job boards not freed after failure eviction")
	}
	if g.WorkingBoards() != 15 {
		t.Errorf("working boards %d, want 15", g.WorkingBoards())
	}
}

func TestResetKeepsFailures(t *testing.T) {
	g := NewGrid(4, 4)
	g.Fail(0, 0)
	g.Allocate(1, 2, 2, Options{})
	g.Reset()
	if g.AllocatedBoards() != 0 {
		t.Error("reset did not free jobs")
	}
	if g.Owner(0, 0) != Failed {
		t.Error("reset cleared failure")
	}
}

func TestUpperLayerFractionContiguousVsSpread(t *testing.T) {
	// A job inside one L1 group crosses nothing; a job spanning groups
	// crosses the upper level.
	local := &Placement{Rows: []int{0, 1}, Cols: []int{0, 1}}
	if f := UpperLayerFraction(local, TrafficAlltoall, 16); f != 0 {
		t.Errorf("contiguous job upper fraction = %f, want 0", f)
	}
	spread := &Placement{Rows: []int{0, 17}, Cols: []int{0, 17}}
	if f := UpperLayerFraction(spread, TrafficAlltoall, 16); f <= 0.5 {
		t.Errorf("spread job upper fraction = %f, want > 0.5", f)
	}
	// Allreduce traffic crosses less than alltoall when the job spans two
	// L1 groups: only the two boundary ring edges cross, while most
	// alltoall board pairs do.
	big := &Placement{
		Rows: []int{0, 1, 2, 3, 4, 20, 21, 22, 23},
		Cols: []int{0, 1, 2, 3, 4, 20, 21, 22, 23},
	}
	ar := UpperLayerFraction(big, TrafficAllreduce, 16)
	a2a := UpperLayerFraction(big, TrafficAlltoall, 16)
	if ar >= a2a {
		t.Errorf("allreduce fraction %.3f not below alltoall %.3f", ar, a2a)
	}
}

func TestLocalityReducesUpperTraffic(t *testing.T) {
	// With a fragmented grid, the locality option should pick placements
	// with at most the upper-layer traffic of the non-locality result.
	mk := func(locality bool) float64 {
		g := NewGrid(64, 64)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 600; i++ { // fragment with scattered 1x1 jobs
			g.owner[rng.Intn(len(g.owner))] = 999
		}
		opt := Options{Transpose: true, AspectRatio: true, Locality: locality}
		var ps []*Placement
		for j := int32(0); j < 40; j++ {
			if p, ok := g.Allocate(j, 4, 4, opt); ok {
				ps = append(ps, p)
			}
		}
		return SystemUpperLayerFraction(ps, TrafficAlltoall, 16)
	}
	withLoc, without := mk(true), mk(false)
	if withLoc > without+1e-9 {
		t.Errorf("locality fraction %.3f worse than greedy %.3f", withLoc, without)
	}
}

func TestAllocationPropertyQuick(t *testing.T) {
	// Property: any sequence of allocations and failures keeps the grid
	// consistent: no board has two owners, placements are rectangular in
	// virtual space, utilization ∈ [0,1].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGrid(8+rng.Intn(8), 8+rng.Intn(8))
		var ps []*Placement
		for job := int32(0); job < 30; job++ {
			switch rng.Intn(5) {
			case 0:
				g.Fail(rng.Intn(g.X), rng.Intn(g.Y))
				// Drop evicted placements from the check list.
				kept := ps[:0]
				for _, p := range ps {
					alive := true
					for _, r := range p.Rows {
						for _, c := range p.Cols {
							if g.Owner(c, r) != p.Job {
								alive = false
							}
						}
					}
					if alive {
						kept = append(kept, p)
					}
				}
				ps = kept
			default:
				u, v := 1+rng.Intn(4), 1+rng.Intn(4)
				if p, ok := g.Allocate(job, u, v, DefaultOptions()); ok {
					if p.U()*p.V() != u*v {
						return false
					}
					ps = append(ps, p)
				}
			}
		}
		if err := g.Validate(ps); err != nil {
			return false
		}
		util := g.Utilization()
		return util >= 0 && util <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFoldJob(t *testing.T) {
	u, v := FoldJob(4, 4, 2)
	if u != 4 || v != 8 {
		t.Errorf("FoldJob(4,4,2) = %dx%d, want 4x8", u, v)
	}
}

func TestLargeGridAllocationFast(t *testing.T) {
	// §IV-A: the greedy procedure allocated a 1000x1000 HxMesh in under a
	// second. Place a few hundred jobs on a 1000x1000 grid.
	if testing.Short() {
		t.Skip("large grid in -short mode")
	}
	g := NewGrid(1000, 1000)
	placed := 0
	for j := int32(0); j < 200; j++ {
		if _, ok := g.Allocate(j, 10, 10, Options{}); ok {
			placed++
		}
	}
	if placed != 200 {
		t.Errorf("placed %d/200 jobs on an empty 1000x1000 grid", placed)
	}
}

// Fragmentation accounting stays exact through repeated alloc/fail/free/
// repair cycles: owner counts derived from the public accessors always
// match a brute-force scan, allocated+free+failed covers the grid, and
// utilization is allocated/working. This is the bookkeeping the scheduler
// (internal/sched) integrates over simulated time.
func TestAccountingAfterAllocFailFreeCycles(t *testing.T) {
	const x, y = 12, 10
	g := NewGrid(x, y)
	rng := rand.New(rand.NewSource(31))
	live := map[int32]*Placement{}
	failed := map[[2]int]bool{}
	next := int32(0)
	check := func(step int) {
		t.Helper()
		alloc, free, fail := 0, 0, 0
		for by := 0; by < y; by++ {
			for bx := 0; bx < x; bx++ {
				switch o := g.Owner(bx, by); {
				case o >= 0:
					alloc++
				case o == Free:
					free++
				case o == Failed:
					fail++
				default:
					t.Fatalf("step %d: board (%d,%d) has owner %d", step, bx, by, o)
				}
			}
		}
		if alloc+free+fail != x*y {
			t.Fatalf("step %d: %d+%d+%d != %d boards", step, alloc, free, fail, x*y)
		}
		if got := g.AllocatedBoards(); got != alloc {
			t.Fatalf("step %d: AllocatedBoards %d, brute force %d", step, got, alloc)
		}
		if got := g.WorkingBoards(); got != x*y-fail {
			t.Fatalf("step %d: WorkingBoards %d, brute force %d", step, got, x*y-fail)
		}
		if fail != len(failed) {
			t.Fatalf("step %d: %d failed boards, tracked %d", step, fail, len(failed))
		}
		want := 0.0
		if x*y-fail > 0 {
			want = float64(alloc) / float64(x*y-fail)
		}
		if got := g.Utilization(); got != want {
			t.Fatalf("step %d: Utilization %g, want %g", step, got, want)
		}
		var ps []*Placement
		for _, p := range live {
			ps = append(ps, p)
		}
		if err := g.Validate(ps); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // allocate
			u, v := 1+rng.Intn(4), 1+rng.Intn(4)
			if p, ok := g.Allocate(next, u, v, DefaultOptions()); ok {
				live[next] = p
				next++
			}
		case op < 7: // release a random job
			for id := range live {
				g.Release(id)
				delete(live, id)
				break
			}
		case op < 9: // fail a random board (evicts its owner)
			bx, by := rng.Intn(x), rng.Intn(y)
			prev := g.Fail(bx, by)
			failed[[2]int{bx, by}] = true
			if prev >= 0 {
				delete(live, prev)
			}
		default: // repair a failed board
			for b := range failed {
				if !g.Repair(b[0], b[1]) {
					t.Fatalf("step %d: repair of tracked failed board (%d,%d) was a no-op", step, b[0], b[1])
				}
				delete(failed, b)
				break
			}
		}
		check(step)
	}
	// Drain: release everything, repair everything; the grid must be
	// fully free again.
	for id := range live {
		g.Release(id)
	}
	for b := range failed {
		g.Repair(b[0], b[1])
	}
	if g.AllocatedBoards() != 0 || g.WorkingBoards() != x*y || g.Utilization() != 0 {
		t.Fatalf("drained grid not pristine: alloc %d working %d util %g",
			g.AllocatedBoards(), g.WorkingBoards(), g.Utilization())
	}
}
