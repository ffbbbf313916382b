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
		maxAspect := opt.MaxAspect
		if maxAspect <= 0 {
			maxAspect = 8
		}
		var facs [][2]int
		for a := 1; a*a <= n; a++ {
			if n%a != 0 {
				continue
			}
			b := n / a
			if b/a <= maxAspect {
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

func refGroupBoards(opt Options) int {
	if opt.TreeGroupBoards <= 0 {
		return 16
	}
	return opt.TreeGroupBoards
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
		idx = refBestWindow(idx, s[1], refGroupBoards(opt))
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
		group := refGroupBoards(opt)
		bestScore := UpperLayerFraction(best, TrafficAlltoall, group)
		for _, p := range cands[1:] {
			if score := UpperLayerFraction(p, TrafficAlltoall, group); score < bestScore {
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
		Transpose:       rng.Intn(2) == 0,
		AspectRatio:     rng.Intn(2) == 0,
		MaxAspect:       rng.Intn(10),
		Locality:        rng.Intn(2) == 0,
		TreeGroupBoards: []int{0, 2, 4, 16}[rng.Intn(4)],
	}
}

// TestPlacementSearchMatchesReference runs random searches on random grid
// states (free, failed and job-owned boards; 8 and 70 columns, so both
// single- and multi-word column sets) and on clones of them, interleaved
// with the mutations a scheduler makes, and checks that the scratch-reusing
// PlaceCandidates, Allocate and FitsDims return the reference search's
// placements in the reference order.
func TestPlacementSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		x := []int{8, 70}[trial%2]
		y := 1 + rng.Intn(20)
		g := NewGrid(x, y)
		nextJob := int32(100)
		// A scheduler searches its grid under one policy's options; an
		// occasional switch exercises the shape memo's restart.
		gridOpt := randomOptions(rng)
		for i := range g.owner {
			switch r := rng.Float64(); {
			case r < 0.1:
				g.owner[i] = Failed
			case r < 0.1+0.5*rng.Float64():
				g.owner[i] = int32(rng.Intn(5))
			}
		}
		for step := 0; step < 40; step++ {
			// Searches on a clone exercise a grid whose scratch was never
			// built alongside one whose scratch is warm.
			target := g
			if rng.Intn(4) == 0 {
				target = g.Clone()
			}
			u, v := 1+rng.Intn(y+2), 1+rng.Intn(min(x, 12)+2)
			opt := gridOpt
			if rng.Intn(8) == 0 {
				opt = randomOptions(rng)
			}
			got := target.PlaceCandidates(nextJob, u, v, opt)
			want := refPlaceCandidates(target, nextJob, u, v, opt)
			if err := samePlacements(got, want); err != nil {
				t.Fatalf("trial %d step %d: PlaceCandidates(%d, %d, %+v) on %dx%d: %v", trial, step, u, v, opt, x, y, err)
			}
			if a, b := target.FitsDims(u, v, opt), refFitsDims(target, u, v, opt); a != b {
				t.Fatalf("trial %d step %d: FitsDims(%d, %d, %+v) = %v, reference %v", trial, step, u, v, opt, a, b)
			}
			if !slices.Equal(target.shapesFor(u, v, opt), refShapes(u, v, opt)) {
				t.Fatalf("trial %d step %d: memoized shapes %v, reference %v", trial, step, target.shapesFor(u, v, opt), refShapes(u, v, opt))
			}

			// Allocate on twin grids; the committed boards must agree too.
			twin := target.Clone()
			p, ok := target.Allocate(nextJob, u, v, opt)
			rp, rok := refAllocate(twin, nextJob, u, v, opt)
			if ok != rok {
				t.Fatalf("trial %d step %d: Allocate(%d, %d, %+v) ok=%v, reference %v", trial, step, u, v, opt, ok, rok)
			}
			if ok {
				if err := samePlacements([]*Placement{p}, []*Placement{rp}); err != nil {
					t.Fatalf("trial %d step %d: Allocate(%d, %d, %+v): %v", trial, step, u, v, opt, err)
				}
			}
			if !slices.Equal(target.owner, twin.owner) {
				t.Fatalf("trial %d step %d: Allocate committed different boards than the reference", trial, step)
			}
			if ok && target == g {
				nextJob++
			}

			// Mutate between searches so stale scratch would show.
			switch rng.Intn(4) {
			case 0:
				g.Release(int32(rng.Intn(int(nextJob) + 1)))
			case 1:
				g.Fail(rng.Intn(x), rng.Intn(y))
			case 2:
				g.Repair(rng.Intn(x), rng.Intn(y))
			}
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
