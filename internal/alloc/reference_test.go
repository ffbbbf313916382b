package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The reference search below keeps no state between calls: it builds the
// free-column sets per call, a fresh intersection set per row, the shape
// list per call and a map of L1 groups per window. The property test
// checks the scratch-reusing search against it.

func refAvailRows(g *Grid) [][]uint64 {
	rows := make([][]uint64, g.Y)
	for by := 0; by < g.Y; by++ {
		s := make([]uint64, (g.X+63)/64)
		for bx := 0; bx < g.X; bx++ {
			if g.owner[by*g.X+bx] == Free {
				s[bx/64] |= 1 << (bx % 64)
			}
		}
		rows[by] = s
	}
	return rows
}

func refCount(s []uint64) int { return colSet(s).count() }

func refPlace(g *Grid, u, v int) (rows []int, cols []uint64, ok bool) {
	if u > g.Y || v > g.X || u <= 0 || v <= 0 {
		return nil, nil, false
	}
	avail := refAvailRows(g)
	inter := make([]uint64, (g.X+63)/64)
	for start := 0; start+u <= g.Y+0 && start < g.Y; start++ {
		if refCount(avail[start]) < v {
			continue
		}
		copy(inter, avail[start])
		rows = rows[:0]
		rows = append(rows, start)
		for r := start + 1; r < g.Y && len(rows) < u; r++ {
			trial := make([]uint64, (g.X+63)/64)
			for i := range trial {
				trial[i] = avail[r][i] & inter[i]
			}
			if refCount(trial) >= v {
				copy(inter, trial)
				rows = append(rows, r)
			}
		}
		if len(rows) == u {
			return rows, inter, true
		}
	}
	return nil, nil, false
}

func refShapes(u, v int, opt Options) [][2]int {
	var out [][2]int
	add := func(a, b int) {
		for _, s := range out {
			if s[0] == a && s[1] == b {
				return
			}
		}
		out = append(out, [2]int{a, b})
	}
	add(u, v)
	if opt.Transpose {
		add(v, u)
	}
	if opt.AspectRatio {
		n := u * v
		var facs [][2]int
		for a := 1; a*a <= n; a++ {
			if n%a != 0 {
				continue
			}
			b := n / a
			if b/a <= MaxAspect {
				facs = append(facs, [2]int{a, b})
				if a != b {
					facs = append(facs, [2]int{b, a})
				}
			}
		}
		sort.Slice(facs, func(i, j int) bool {
			di := facs[i][1] - facs[i][0]
			if di < 0 {
				di = -di
			}
			dj := facs[j][1] - facs[j][0]
			if dj < 0 {
				dj = -dj
			}
			return di < dj
		})
		for _, f := range facs {
			add(f[0], f[1])
		}
	}
	return out
}

func refBestWindow(idx []int, w, groupBoards int) []int {
	if len(idx) <= w {
		return idx
	}
	bestStart, bestGroups, bestSpan := 0, 1<<30, 1<<30
	for s := 0; s+w <= len(idx); s++ {
		groups := map[int]bool{}
		for _, c := range idx[s : s+w] {
			groups[c/groupBoards] = true
		}
		span := idx[s+w-1] - idx[s]
		if len(groups) < bestGroups || (len(groups) == bestGroups && span < bestSpan) {
			bestStart, bestGroups, bestSpan = s, len(groups), span
		}
	}
	return append([]int{}, idx[bestStart:bestStart+w]...)
}

func refPlaceCandidates(g *Grid, job int32, u, v int, opt Options) []*Placement {
	var out []*Placement
	for _, s := range refShapes(u, v, opt) {
		rows, cols, ok := refPlace(g, s[0], s[1])
		if !ok {
			continue
		}
		var idx []int
		for i := 0; i < g.X; i++ {
			if cols[i/64]&(1<<(i%64)) != 0 {
				idx = append(idx, i)
			}
		}
		idx = refBestWindow(idx, s[1], GroupBoards)
		out = append(out, &Placement{Job: job, Rows: append([]int{}, rows...), Cols: idx})
	}
	return out
}

// refAllocate is the reference Allocate: the first candidate wins, or with
// Locality the one with the lowest upper-layer alltoall fraction.
func refAllocate(g *Grid, job int32, u, v int, opt Options) (*Placement, bool) {
	cands := refPlaceCandidates(g, job, u, v, opt)
	if len(cands) == 0 {
		return nil, false
	}
	best := cands[0]
	if opt.Locality {
		bestScore := UpperLayerFraction(best, TrafficAlltoall, GroupBoards)
		for _, p := range cands[1:] {
			if score := UpperLayerFraction(p, TrafficAlltoall, GroupBoards); score < bestScore {
				best, bestScore = p, score
			}
		}
	}
	g.commit(best)
	return best, true
}

func refFitsDims(g *Grid, u, v int, opt Options) bool {
	for _, s := range refShapes(u, v, opt) {
		if s[0] >= 1 && s[1] >= 1 && s[0] <= g.Y && s[1] <= g.X {
			return true
		}
	}
	return false
}

func samePlacements(a, b []*Placement) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d candidates, reference %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Job != b[i].Job || !slices.Equal(a[i].Rows, b[i].Rows) || !slices.Equal(a[i].Cols, b[i].Cols) {
			return fmt.Errorf("candidate %d: %+v, reference %+v", i, *a[i], *b[i])
		}
	}
	return nil
}

// randomOptions draws heuristic settings, including the sched policies'
// (firstfit: none; fragaware: transpose + aspect ratio; bestfit: all).
func randomOptions(rng *rand.Rand) Options {
	return Options{
		Transpose:   rng.Intn(2) == 0,
		AspectRatio: rng.Intn(2) == 0,
		Locality:    rng.Intn(2) == 0,
	}
}

// checkAvail fails the test when g's kept free-column sets differ from the
// ones the reference rebuilds from the owners.
func checkAvail(t *testing.T, g *Grid, where string) {
	t.Helper()
	want := refAvailRows(g)
	for by, s := range g.free {
		if !slices.Equal(s, colSet(want[by])) {
			t.Fatalf("%s: row %d free columns %b, reference %b", where, by, s, want[by])
		}
	}
}

// searchOptions are the heuristic settings programs search under: the
// Fig. 8 stacks' (greedy, +transpose, +aspect ratio, +locality; the sort
// stack only reorders jobs) and the sched policies' (firstfit: none;
// fragaware: transpose + aspect ratio; bestfit: all).
var searchOptions = []Options{{}, {Transpose: true}, {Transpose: true, AspectRatio: true}, DefaultOptions()}

// checkPick fails the test unless Pick leaves g's owners and free-column
// sets as they were and returns the placement Allocate then commits on a
// copy of g.
func checkPick(t *testing.T, g *Grid, job int32, u, v int, opt Options, where string) {
	t.Helper()
	owners, free := slices.Clone(g.owner), refAvailRows(g)
	p, ok := g.Pick(job, u, v, opt)
	if !slices.Equal(g.owner, owners) {
		t.Fatalf("%s: Pick(%d, %d, %+v) wrote owners", where, u, v, opt)
	}
	for by, s := range g.free {
		if !slices.Equal(s, colSet(free[by])) {
			t.Fatalf("%s: Pick(%d, %d, %+v) changed row %d's free columns", where, u, v, opt, by)
		}
	}
	twin := NewGrid(g.X, g.Y)
	twin.CopyFrom(g)
	ap, aok := twin.Allocate(job, u, v, opt)
	if ok != aok {
		t.Fatalf("%s: Pick(%d, %d, %+v) ok=%v, Allocate %v", where, u, v, opt, ok, aok)
	}
	if !ok {
		return
	}
	if err := samePlacements([]*Placement{p}, []*Placement{ap}); err != nil {
		t.Fatalf("%s: Pick(%d, %d, %+v) against Allocate: %v", where, u, v, opt, err)
	}
	for _, r := range p.Rows {
		for _, c := range p.Cols {
			owners[r*g.X+c] = job
		}
	}
	if !slices.Equal(twin.owner, owners) {
		t.Fatalf("%s: Allocate(%d, %d, %+v) committed other boards than Pick's", where, u, v, opt)
	}
}

// TestPlacementSearchMatchesReference runs random searches on random grid
// states (free, failed and job-owned boards; 8 and 70 columns, so both
// single- and multi-word column sets, and rows inside one GroupBoards
// group and across five), on a fresh copy and on a reused shadow grid
// refreshed by CopyFrom, interleaved with every mutation a scheduler makes
// (Release, Fail, Repair, Reset, Shrink, Commit, CopyFrom), and checks that
// the scratch-reusing PlaceCandidates, Allocate and FitsDims return the
// reference search's placements in the reference order and that the kept
// free-column sets equal the reference's after every mutation. Under every
// option set of searchOptions, Pick must leave the grid as it was and
// return the placement Allocate commits. Each step runs its searches twice
// on the unchanged grid, so answers from the infeasible-shape memo are
// checked too, and a mutation that left the generation in place would
// show as a stale refusal.
func TestPlacementSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		x := []int{8, 70}[trial%2]
		y := 1 + rng.Intn(20)
		g, shadow := NewGrid(x, y), NewGrid(x, y)
		nextJob := int32(100)
		var placed []*Placement // committed on g; Shrink picks from them
		// A scheduler searches its grid under one policy's options; an
		// occasional switch exercises the shape memo's restart.
		gridOpt := randomOptions(rng)
		for i := range g.owner {
			switch r := rng.Float64(); {
			case r < 0.1:
				g.set(i, Failed)
			case r < 0.1+0.5*rng.Float64():
				g.set(i, int32(rng.Intn(5)))
			}
		}
		checkAvail(t, g, fmt.Sprintf("trial %d setup", trial))
		for step := 0; step < 40; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			// Searches on a fresh copy exercise a grid whose scratch was
			// never used; on the shadow grid, scratch warmed on older
			// states.
			target := g
			switch rng.Intn(8) {
			case 0:
				target = NewGrid(x, y)
				target.CopyFrom(g)
			case 1:
				shadow.CopyFrom(g)
				target = shadow
			}
			checkAvail(t, target, where+" target")
			u, v := 1+rng.Intn(y+2), 1+rng.Intn(min(x, 12)+2)
			opt := gridOpt
			if rng.Intn(8) == 0 {
				opt = randomOptions(rng)
			}
			// The second round repeats every search on the unchanged grid,
			// where the shapes the first found infeasible are remembered.
			for round := range 2 {
				where := fmt.Sprintf("%s round %d", where, round)
				got := target.PlaceCandidates(nextJob, u, v, opt)
				want := refPlaceCandidates(target, nextJob, u, v, opt)
				if err := samePlacements(got, want); err != nil {
					t.Fatalf("%s: PlaceCandidates(%d, %d, %+v) on %dx%d: %v", where, u, v, opt, x, y, err)
				}
				if a, b := target.FitsDims(u, v, opt), refFitsDims(target, u, v, opt); a != b {
					t.Fatalf("%s: FitsDims(%d, %d, %+v) = %v, reference %v", where, u, v, opt, a, b)
				}
				if !slices.Equal(target.shapesFor(u, v, opt), refShapes(u, v, opt)) {
					t.Fatalf("%s: memoized shapes %v, reference %v", where, target.shapesFor(u, v, opt), refShapes(u, v, opt))
				}
				for _, o := range searchOptions {
					checkPick(t, target, nextJob, u, v, o, where)
				}
			}

			// Allocate on twin grids; the committed boards must agree too.
			twin := NewGrid(x, y)
			twin.CopyFrom(target)
			p, ok := target.Allocate(nextJob, u, v, opt)
			rp, rok := refAllocate(twin, nextJob, u, v, opt)
			if ok != rok {
				t.Fatalf("%s: Allocate(%d, %d, %+v) ok=%v, reference %v", where, u, v, opt, ok, rok)
			}
			if ok {
				if err := samePlacements([]*Placement{p}, []*Placement{rp}); err != nil {
					t.Fatalf("%s: Allocate(%d, %d, %+v): %v", where, u, v, opt, err)
				}
			}
			if !slices.Equal(target.owner, twin.owner) {
				t.Fatalf("%s: Allocate committed different boards than the reference", where)
			}
			checkAvail(t, target, where+" Allocate")
			if ok && target == g {
				placed = append(placed, p)
				nextJob++
			}

			// Mutate between searches so stale scratch or a stale free set
			// would show.
			switch op := rng.Intn(16); {
			case op < 3:
				g.Release(int32(rng.Intn(int(nextJob) + 1)))
			case op < 6:
				g.Fail(rng.Intn(x), rng.Intn(y))
			case op < 8:
				g.Repair(rng.Intn(x), rng.Intn(y))
			case op < 9:
				g.Reset()
			case op < 12 && len(placed) > 0:
				// Trim a committed placement to a random corner; a stale
				// one (released, failed or reset since) is refused.
				k := rng.Intn(len(placed))
				p := placed[k]
				if np, err := g.Shrink(p, p.Rows[:1+rng.Intn(p.U())], p.Cols[:1+rng.Intn(p.V())]); err == nil {
					placed[k] = np
				}
			case op < 14:
				if cands := g.PlaceCandidates(nextJob, 1+rng.Intn(3), 1+rng.Intn(3), gridOpt); len(cands) > 0 {
					p := cands[rng.Intn(len(cands))]
					if err := g.Commit(p); err != nil {
						t.Fatalf("%s: Commit of a fresh candidate: %v", where, err)
					}
					placed = append(placed, p)
					nextJob++
				}
			case op < 15:
				// Copy back a diverged state: a job released on a copy.
				src := NewGrid(x, y)
				src.CopyFrom(g)
				src.Release(int32(rng.Intn(int(nextJob) + 1)))
				g.CopyFrom(src)
			}
			checkAvail(t, g, where+" mutation")
		}
	}
}

// strideSample returns at most max entries of xs, evenly strided,
// always including the first and last entries.
func strideSample(xs []int, max int) []int {
	if len(xs) <= max {
		return xs
	}
	out := make([]int, 0, max)
	step := float64(len(xs)-1) / float64(max-1)
	prev := -1
	for i := 0; i < max; i++ {
		idx := int(float64(i)*step + 0.5)
		if idx == prev {
			continue
		}
		prev = idx
		out = append(out, xs[idx])
	}
	return out
}

// refUpperLayerAlltoall is the alltoall upper-layer fraction by
// enumeration: every ordered pair of distinct boards of the stride-sampled
// rows and columns (each reduced to its L1 group), counting one traversal
// per dimension network the pair uses and a crossing where the pair's
// coordinates in it lie in different groups.
func refUpperLayerAlltoall(p *Placement, groupBoards int) float64 {
	groups := func(xs []int) []int {
		out := make([]int, len(xs))
		for i, x := range xs {
			out[i] = x / groupBoards
		}
		return out
	}
	rows, cols := groups(strideSample(p.Rows, 12)), groups(strideSample(p.Cols, 12))
	crossings, traversals := 0, 0
	for i, r1 := range rows {
		for j, c1 := range cols {
			for i2, r2 := range rows {
				for j2, c2 := range cols {
					switch {
					case i == i2 && j == j2:
						continue
					case i == i2: // same physical row: row network only
						traversals++
						if c1 != c2 {
							crossings++
						}
					case j == j2: // same column: column network only
						traversals++
						if r1 != r2 {
							crossings++
						}
					default: // via intermediate board: one of each
						traversals += 2
						if c1 != c2 {
							crossings++
						}
						if r1 != r2 {
							crossings++
						}
					}
				}
			}
		}
	}
	if traversals == 0 {
		return 0
	}
	return float64(crossings) / float64(traversals)
}

// TestUpperLayerFractionMatchesEnumeration checks the closed-form alltoall
// count against the pair enumeration, bit for bit, on random ascending
// placements of up to 64 rows and columns (so the 12-entry stride sample
// is taken) under L1 groups of 1 to 20 boards.
func TestUpperLayerFractionMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ascending := func() []int {
		n := 1 + rng.Intn(64)
		xs := rng.Perm(n + rng.Intn(65))[:n]
		slices.Sort(xs)
		return xs
	}
	for i := 0; i < 20000; i++ {
		p := &Placement{Job: 1, Rows: ascending(), Cols: ascending()}
		group := 1 + rng.Intn(20)
		if got, want := UpperLayerFraction(p, TrafficAlltoall, group), refUpperLayerAlltoall(p, group); got != want {
			t.Fatalf("rows %v cols %v group %d: closed form %v, enumeration %v", p.Rows, p.Cols, group, got, want)
		}
	}
}

// TestBestWindowMatchesReference checks the transition-counting window
// search against the per-window group map on random sorted column lists.
func TestBestWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		var idx []int
		for c := 0; c < 80; c++ {
			if rng.Intn(3) > 0 {
				idx = append(idx, c)
			}
		}
		if len(idx) == 0 {
			continue
		}
		w := 1 + rng.Intn(len(idx))
		group := 1 + rng.Intn(20)
		s := bestWindow(idx, w, group)
		if got, want := idx[s:s+w], refBestWindow(idx, w, group); !slices.Equal(got, want) {
			t.Fatalf("bestWindow(%v, %d, %d) = %v, reference %v", idx, w, group, got, want)
		}
	}
}
