// Package alloc implements the HammingMesh job allocator of §IV: the
// greedy row-intersection strategy, the transpose / aspect-ratio / sort /
// locality optimization heuristics, failure handling through virtual
// sub-HxMeshes, defragmentation, and the upper-layer fat-tree traffic
// accounting behind Fig. 9.
//
// A job requests a u×v grid of boards. A valid placement is a set of u
// rows and v columns such that every (row, column) board is available;
// because every selected row uses the same column coordinates, the
// placement forms a virtual sub-HxMesh with the same network properties
// as a physical u×v HxMesh (§III-E), and no two jobs ever share a board,
// row segment or column segment in a way that lets packets cross foreign
// boards (§IV-A, job interference).
package alloc

import (
	"fmt"
	"math/bits"
	"sort"
)

// Grid is the allocator's view of an x×y HxMesh: a matrix of boards that
// are free, failed, or owned by a job. Every owner write goes through set,
// which keeps each row's free-column set in step with the owners, so a
// placement search reads the sets without rebuilding them. set and
// CopyFrom also advance the grid's generation (Gen), so a caller can tell
// an unchanged grid from a changed one without comparing boards.
//
// A Grid is not safe for concurrent use, and that includes the read-only
// searches (PlaceCandidates, Pick, FitsDims, LargestPlaceable): every search
// works in the grid's own scratch. Concurrent searches need their own
// grids; no caller in this module shares one.
type Grid struct {
	X, Y  int
	owner []int32  // -1 free, -2 failed, otherwise job id; written by set
	free  []colSet // per row, the free columns; set keeps them current
	gen   uint64   // advanced by set and CopyFrom
	sc    search   // placement-search scratch; CopyFrom leaves it alone
}

// search is a Grid's reusable placement-search scratch: the two
// intersection sets and the row and column-index buffers the
// row-intersection loop reuses, the memoized shape lists, and the shapes
// found infeasible at generation failedGen.
type search struct {
	inter, trial colSet
	rows, cols   []int
	shapes       map[[2]int][][2]int // by (u, v), under shapeOpt
	shapeOpt     Options
	failed       colSet // bit (u-1)·X + v-1: no u×v placement at failedGen
	failedGen    uint64
}

// Free and Failed are the non-job owner values.
const (
	Free   int32 = -1
	Failed int32 = -2
)

// NewGrid creates an empty allocation grid of x columns and y rows.
func NewGrid(x, y int) *Grid {
	g := &Grid{X: x, Y: y, owner: make([]int32, x*y)}
	for i := range g.owner {
		g.owner[i] = Free
	}
	// The free sets, the two intersection sets and the infeasible-shape
	// bits share one allocation.
	nw := (x + 63) / 64
	words := make(colSet, (y+2)*nw+(x*y+63)/64)
	g.free = make([]colSet, y)
	for by := range g.free {
		s := words[by*nw : (by+1)*nw : (by+1)*nw]
		for bx := 0; bx < x; bx++ {
			s[bx/64] |= 1 << (bx % 64)
		}
		g.free[by] = s
	}
	g.sc.inter = words[y*nw : (y+1)*nw : (y+1)*nw]
	g.sc.trial = words[(y+1)*nw : (y+2)*nw : (y+2)*nw]
	g.sc.failed = words[(y+2)*nw:]
	return g
}

// set writes board i's owner, flips the board's bit in its row's
// free-column set to match and advances the generation. Every owner write
// after NewGrid goes through it.
func (g *Grid) set(i int, o int32) {
	g.owner[i] = o
	g.gen++
	bx := i % g.X
	w, bit := &g.free[i/g.X][bx/64], uint64(1)<<(bx%64)
	if o == Free {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// CopyFrom makes g's boards a copy of src's, which must have g's
// dimensions: the owners and the free-column sets. It advances g's
// generation. g's search scratch and shape memo are kept, so a scheduler's
// shadow grid, refreshed from the live grid for every projection, searches
// warm.
func (g *Grid) CopyFrom(src *Grid) {
	if g.X != src.X || g.Y != src.Y {
		panic(fmt.Sprintf("alloc: copying a %dx%d grid onto a %dx%d one", src.X, src.Y, g.X, g.Y))
	}
	copy(g.owner, src.owner)
	for by, s := range src.free {
		copy(g.free[by], s)
	}
	g.gen++
}

// Gen returns the grid's generation, which every owner change advances:
// while it reads the same, so do all of the grid's boards. Generations of
// two different grids are unrelated.
func (g *Grid) Gen() uint64 { return g.gen }

// Owner returns the owner of board (bx, by).
func (g *Grid) Owner(bx, by int) int32 { return g.owner[by*g.X+bx] }

// Fail marks board (bx, by) as failed. Failing an owned board evicts the
// job (the caller decides whether to reschedule it).
func (g *Grid) Fail(bx, by int) int32 {
	prev := g.owner[by*g.X+bx]
	g.set(by*g.X+bx, Failed)
	if prev >= 0 {
		g.Release(prev)
	}
	return prev
}

// Repair returns a failed board to service (the scheduler's MTTR model)
// and reports whether the board was actually failed; repairing a free or
// owned board is a no-op.
func (g *Grid) Repair(bx, by int) bool {
	if g.owner[by*g.X+bx] != Failed {
		return false
	}
	g.set(by*g.X+bx, Free)
	return true
}

// Release frees all boards of a job.
func (g *Grid) Release(job int32) {
	for i, o := range g.owner {
		if o == job {
			g.set(i, Free)
		}
	}
}

// Reset frees every non-failed board (checkpoint/restart defragmentation,
// §IV-A(b)).
func (g *Grid) Reset() {
	for i, o := range g.owner {
		if o >= 0 {
			g.set(i, Free)
		}
	}
}

// WorkingBoards counts the non-failed boards.
func (g *Grid) WorkingBoards() int {
	n := 0
	for _, o := range g.owner {
		if o != Failed {
			n++
		}
	}
	return n
}

// AllocatedBoards counts boards owned by jobs.
func (g *Grid) AllocatedBoards() int {
	n := 0
	for _, o := range g.owner {
		if o >= 0 {
			n++
		}
	}
	return n
}

// Utilization is allocated / working boards (the metric of Figs. 8 and 10).
func (g *Grid) Utilization() float64 {
	w := g.WorkingBoards()
	if w == 0 {
		return 0
	}
	return float64(g.AllocatedBoards()) / float64(w)
}

// Placement is a successful allocation: the selected physical rows and
// columns. Virtual coordinate (i, j) maps to physical board
// (Cols[j], Rows[i]).
type Placement struct {
	Job  int32
	Rows []int // physical row indexes, ascending, len u
	Cols []int // physical column indexes, ascending, len v
}

// U and V return the placement's dimensions.
func (p *Placement) U() int { return len(p.Rows) }
func (p *Placement) V() int { return len(p.Cols) }

// colSet is a bitset over board columns.
type colSet []uint64

func (s colSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}
func (s colSet) andInto(dst colSet, o colSet) {
	for i := range dst {
		dst[i] = s[i] & o[i]
	}
}

// appendIndices appends the set's members in ascending order.
func (s colSet) appendIndices(out []int) []int {
	for wi, w := range s {
		for w != 0 {
			out = append(out, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// place finds a u×v placement with the greedy row-intersection strategy of
// §IV-A: starting from each candidate row in turn, grow the selected set S
// with rows whose intersection with the running column set keeps at least
// v columns, until u rows are collected. The returned rows and columns live
// in the search scratch.
//
// The search reads only the free-column sets, and writes none of them, so
// its answer changes only with the generation: a shape found infeasible is
// remembered until the generation moves, and asking again returns at once. Only the exact shape
// is remembered. The greedy search is not monotone in the shape (on a grid
// whose rows hold free columns {a,b,c}, {a}, {b,c}, {b,c}, a 3×1 request
// fails where 3×2 succeeds), so one failure says nothing of another shape.
func (g *Grid) place(u, v int) (rows []int, cols colSet, ok bool) {
	if u > g.Y || v > g.X || u <= 0 || v <= 0 {
		return nil, nil, false
	}
	if g.sc.failedGen != g.gen {
		clear(g.sc.failed)
		g.sc.failedGen = g.gen
	}
	k := (u-1)*g.X + v - 1
	if g.sc.failed[k/64]&(1<<(k%64)) != 0 {
		return nil, nil, false
	}
	inter, trial := g.sc.inter, g.sc.trial
	rows = g.sc.rows[:0]
	for start := 0; start+u <= g.Y; start++ {
		if g.free[start].count() < v {
			continue
		}
		copy(inter, g.free[start])
		rows = append(rows[:0], start)
		for r := start + 1; r < g.Y && len(rows) < u; r++ {
			g.free[r].andInto(trial, inter)
			if trial.count() >= v {
				inter, trial = trial, inter
				rows = append(rows, r)
			}
		}
		if len(rows) == u {
			g.sc.rows = rows
			return rows, inter, true
		}
	}
	g.sc.rows = rows
	g.sc.failed[k/64] |= 1 << (k % 64)
	return nil, nil, false
}

// GroupBoards is the number of consecutive boards under one first-level
// switch of a dimension's two-level fat tree: a 64-port switch has 32
// down-ports, two per board (§III). The window search, the locality score
// and the Fig. 9 accounting group boards by it.
const GroupBoards = 16

// MaxAspect caps the aspect ratio of a reshaped job (§IV-A).
const MaxAspect = 8

// Options toggles the §IV-A optimization heuristics.
type Options struct {
	// Transpose retries a failed u×v request as v×u.
	Transpose bool
	// AspectRatio allows reshaping the job to any u'×v' with
	// u'·v' = u·v and aspect ratio at most MaxAspect.
	AspectRatio bool
	// Locality evaluates all candidate shapes and picks the one with the
	// lowest upper-layer alltoall traffic (§IV-A Locality).
	Locality bool
}

// DefaultOptions enables every heuristic.
func DefaultOptions() Options {
	return Options{Transpose: true, AspectRatio: true, Locality: true}
}

// shapesFor is shapes memoized on the grid per (u, v, options). The memo
// holds the options of the latest call, since a scheduler searches its grid
// under one policy's options, and starts over when they change. The
// returned list is shared between calls and must not be modified.
func (g *Grid) shapesFor(u, v int, opt Options) [][2]int {
	k := [2]int{u, v}
	if g.sc.shapes == nil || opt != g.sc.shapeOpt {
		g.sc.shapes, g.sc.shapeOpt = make(map[[2]int][][2]int), opt
	}
	if out, ok := g.sc.shapes[k]; ok {
		return out
	}
	out := shapes(u, v, opt)
	g.sc.shapes[k] = out
	return out
}

// shapes enumerates the (u, v) candidates for a job of `boards` boards
// under the options, squarest first.
func shapes(u, v int, opt Options) [][2]int {
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

// ErrNeverFits reports that no allowed shape of the job fits the grid's
// dimensions even when every board is free: the request can never succeed
// on this grid (schedulers should reject it rather than queue it).
type ErrNeverFits struct {
	Job  int32
	U, V int
	X, Y int
}

func (e *ErrNeverFits) Error() string {
	return fmt.Sprintf("alloc: job %d (%dx%d boards) can never fit a %dx%d grid", e.Job, e.U, e.V, e.X, e.Y)
}

// PlaceCandidates returns one uncommitted candidate placement per feasible
// shape of a u×v job under the options, in shape-preference order. The grid
// is not modified; callers score the candidates with their own policy and
// commit the winner with Commit. Candidates overlap (they draw from the
// same free boards), so at most one may be committed. Pick chooses among
// the same candidates as Allocate does.
func (g *Grid) PlaceCandidates(job int32, u, v int, opt Options) []*Placement {
	if job < 0 {
		panic(fmt.Sprintf("alloc: invalid job id %d", job))
	}
	var out []*Placement
	for _, s := range g.shapesFor(u, v, opt) {
		if p, ok := g.placeShape(job, s[0], s[1]); ok {
			out = append(out, p)
		}
	}
	return out
}

// placeShape runs the greedy row-intersection search for one concrete
// shape and builds the (uncommitted) placement.
func (g *Grid) placeShape(job int32, u, v int) (*Placement, bool) {
	rows, cols, ok := g.place(u, v)
	if !ok {
		return nil, false
	}
	g.sc.cols = cols.appendIndices(g.sc.cols[:0])
	// The intersection may hold more than v columns; pick the v columns
	// that minimize spread (consecutive window with the fewest L1-group
	// crossings), a cheap locality refinement.
	start := bestWindow(g.sc.cols, v, GroupBoards)
	// Rows and Cols share one allocation; the capped Rows cannot grow
	// into Cols.
	buf := make([]int, u+v)
	copy(buf, rows)
	copy(buf[u:], g.sc.cols[start:start+v])
	return &Placement{Job: job, Rows: buf[:u:u], Cols: buf[u:]}, true
}

// FitsDims reports whether some allowed shape of a u×v job fits the grid
// dimensions with every board free — the permanent-feasibility criterion
// behind ErrNeverFits (a pure dimension check; no grid state is read).
// Schedulers use it to drop impossible jobs instead of queueing them.
func (g *Grid) FitsDims(u, v int, opt Options) bool {
	for _, s := range g.shapesFor(u, v, opt) {
		if s[0] >= 1 && s[1] >= 1 && s[0] <= g.Y && s[1] <= g.X {
			return true
		}
	}
	return false
}

// Pick returns, uncommitted, the placement of a u×v job that the enabled
// heuristics choose: the first feasible shape's, or with Locality the
// candidate with the lowest upper-layer alltoall fraction, where a tie
// keeps the earlier shape. The grid is not modified; commit the result
// with Commit. It returns false when no shape fits.
func (g *Grid) Pick(job int32, u, v int, opt Options) (*Placement, bool) {
	if job < 0 {
		panic(fmt.Sprintf("alloc: invalid job id %d", job))
	}
	var best *Placement
	bestScore := 0.0
	for _, s := range g.shapesFor(u, v, opt) {
		p, ok := g.placeShape(job, s[0], s[1])
		if !ok {
			continue
		}
		if !opt.Locality {
			return p, true // first feasible shape wins
		}
		if score := UpperLayerFraction(p, TrafficAlltoall, GroupBoards); best == nil || score < bestScore {
			best, bestScore = p, score
		}
	}
	return best, best != nil
}

// Allocate commits the placement Pick chooses. It returns false when no
// shape fits.
func (g *Grid) Allocate(job int32, u, v int, opt Options) (*Placement, bool) {
	p, ok := g.Pick(job, u, v, opt)
	if ok {
		g.commit(p)
	}
	return p, ok
}

// Commit marks a candidate placement's boards as owned, with a typed error
// when a board is no longer free (the candidate went stale). It is the
// exported counterpart of the internal commit used by Allocate.
func (g *Grid) Commit(p *Placement) error {
	for _, r := range p.Rows {
		for _, c := range p.Cols {
			if g.owner[r*g.X+c] != Free {
				return fmt.Errorf("alloc: board (%d,%d) not free (owner %d); candidate is stale", c, r, g.owner[r*g.X+c])
			}
		}
	}
	g.commit(p)
	return nil
}

// bestWindow returns the start of the w consecutive entries of sorted idx
// covering the fewest distinct L1 groups (fewest upper-layer crossings),
// ties broken toward the narrowest span.
func bestWindow(idx []int, w, groupBoards int) int {
	if len(idx) <= w {
		return 0
	}
	bestStart, bestGroups, bestSpan := 0, 1<<30, 1<<30
	for s := 0; s+w <= len(idx); s++ {
		// idx ascends, so the window covers one group plus one more per
		// group change between neighbours.
		groups := 1
		for k := s + 1; k < s+w; k++ {
			if idx[k]/groupBoards != idx[k-1]/groupBoards {
				groups++
			}
		}
		span := idx[s+w-1] - idx[s]
		if groups < bestGroups || (groups == bestGroups && span < bestSpan) {
			bestStart, bestGroups, bestSpan = s, groups, span
		}
	}
	return bestStart
}

// commit marks the placement's boards as owned.
func (g *Grid) commit(p *Placement) {
	for _, r := range p.Rows {
		for _, c := range p.Cols {
			if g.owner[r*g.X+c] != Free {
				panic(fmt.Sprintf("alloc: committing non-free board (%d,%d)", c, r))
			}
			g.set(r*g.X+c, p.Job)
		}
	}
}

// Validate checks allocator invariants: every placement's boards owned by
// exactly that job, all rows sharing the same column set.
func (g *Grid) Validate(placements []*Placement) error {
	seen := make(map[int]int32)
	for _, p := range placements {
		for _, r := range p.Rows {
			for _, c := range p.Cols {
				idx := r*g.X + c
				if g.owner[idx] != p.Job {
					return fmt.Errorf("alloc: board (%d,%d) owner %d, want job %d", c, r, g.owner[idx], p.Job)
				}
				if prev, dup := seen[idx]; dup {
					return fmt.Errorf("alloc: board (%d,%d) claimed by jobs %d and %d", c, r, prev, p.Job)
				}
				seen[idx] = p.Job
			}
		}
	}
	return nil
}

// FoldJob folds a 3D virtual topology d1×d2×d3 onto two dimensions as in
// Fig. 4: the third dimension is sliced and laid out along the second, so
// the job requests d1 × (d2·d3) boards with consecutive slices adjacent.
func FoldJob(d1, d2, d3 int) (u, v int) { return d1, d2 * d3 }
