package sched

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/flowsim"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/topo"
)

// placeAt builds a placement over explicit row/col indices.
func placeAt(rows, cols []int) *alloc.Placement {
	return &alloc.Placement{Rows: rows, Cols: cols}
}

func TestInterferenceSmallGridInert(t *testing.T) {
	// A grid that fits inside one L1 group has no shared upper layer:
	// every γ is exactly 1 no matter how crowded.
	in := &Interference{BoardA: 2, BoardB: 2, GroupBoards: 16}
	jobs := []JobTraffic{
		{Placement: placeAt([]int{0, 1}, []int{0, 1}), CommFrac: 0.9},
		{Placement: placeAt([]int{2, 3}, []int{0, 1}), CommFrac: 0.9},
		{Placement: placeAt([]int{0, 1, 2, 3}, []int{2, 3}), CommFrac: 0.9},
	}
	for i, g := range in.Gammas(8, 8, jobs) {
		if g != 1 {
			t.Fatalf("γ[%d] = %v on a single-group grid, want 1", i, g)
		}
	}
}

func TestInterferenceGammaMonotoneInContenders(t *testing.T) {
	// Group width 2 on an 8×8 grid: placements spanning column groups
	// fight over the tapered row-tree uplinks. Contention needs a shared
	// tree AND a shared group uplink, so the jobs interleave columns
	// within the same rows (boards stay disjoint).
	in := &Interference{BoardA: 2, BoardB: 2, GroupBoards: 2, Taper: 0.25}
	obs := JobTraffic{Placement: placeAt([]int{0, 1}, []int{0, 2}), CommFrac: 0.8}
	contenders := [][]int{{1, 5}, {3, 7}, {4, 6}}
	prev := 0.0
	for k := 0; k <= 3; k++ {
		jobs := []JobTraffic{obs}
		for j := 0; j < k; j++ {
			jobs = append(jobs, JobTraffic{
				Placement: placeAt([]int{0, 1}, contenders[j]),
				CommFrac:  0.8,
			})
		}
		g := in.Gammas(8, 8, jobs)[0]
		if g < 1 {
			t.Fatalf("γ = %v < 1 with %d contenders", g, k)
		}
		if g < prev-1e-9 {
			t.Fatalf("γ decreased with more contenders: %v -> %v at k=%d", prev, g, k)
		}
		prev = g
	}
	if prev <= 1 {
		t.Fatalf("γ = %v after 3 co-located contenders, want > 1", prev)
	}
}

func TestInterferenceDisjointJobsNoGamma(t *testing.T) {
	in := &Interference{BoardA: 2, BoardB: 2, GroupBoards: 2, Taper: 0.25}
	// Two jobs on disjoint rows AND disjoint columns: no shared tree at
	// all, so neither sees contention (each may self-congest, but that
	// divides out).
	jobs := []JobTraffic{
		{Placement: placeAt([]int{0, 1}, []int{0, 1, 2, 3}), CommFrac: 0.8},
		{Placement: placeAt([]int{4, 5}, []int{4, 5, 6, 7}), CommFrac: 0.8},
	}
	for i, g := range in.Gammas(8, 8, jobs) {
		if math.Abs(g-1) > 1e-9 {
			t.Fatalf("γ[%d] = %v for tree-disjoint jobs, want 1", i, g)
		}
	}
}

func TestInterferenceOrderInvariantAndMemoized(t *testing.T) {
	mk := func() []JobTraffic {
		return []JobTraffic{
			{Placement: placeAt([]int{0, 1}, []int{0, 1, 2, 3, 4, 5}), CommFrac: 0.7},
			{Placement: placeAt([]int{2, 3}, []int{0, 1, 2, 3, 4, 5}), CommFrac: 0.5},
			{Placement: placeAt([]int{0, 2}, []int{0, 5}), CommFrac: 0.9},
		}
	}
	in := &Interference{BoardA: 2, BoardB: 2, GroupBoards: 2, Taper: 0.25}
	a := in.Gammas(8, 8, mk())
	// Same set, permuted caller order: per-job γ must be identical.
	jobs := mk()
	perm := []JobTraffic{jobs[2], jobs[0], jobs[1]}
	b := in.Gammas(8, 8, perm)
	if a[0] != b[1] || a[1] != b[2] || a[2] != b[0] {
		t.Fatalf("γ depends on caller order: %v vs %v", a, b)
	}
	st := in.Stats()
	if st.Solves != 1 || st.MemoHits != 1 {
		t.Fatalf("memo not effective: %+v (want 1 solve, 1 hit)", st)
	}
	// A fresh Interference must reproduce the same numbers (cold vs warm).
	in2 := &Interference{BoardA: 2, BoardB: 2, GroupBoards: 2, Taper: 0.25}
	c := in2.Gammas(8, 8, mk())
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("cold recomputation diverges: %v vs %v", a, c)
		}
	}
}

func TestInterferenceNoCommNoGamma(t *testing.T) {
	in := &Interference{BoardA: 2, BoardB: 2, GroupBoards: 2, Taper: 0.25}
	jobs := []JobTraffic{
		{Placement: placeAt([]int{0, 1}, []int{0, 1, 2, 3, 4, 5, 6, 7}), CommFrac: 0},
		{Placement: placeAt([]int{0}, []int{0}), CommFrac: 0.9}, // single board
		{Placement: placeAt([]int{2, 3}, []int{0, 1, 2, 3, 4, 5, 6, 7}), CommFrac: 0.8},
	}
	g := in.Gammas(8, 8, jobs)
	if g[0] != 1 || g[1] != 1 {
		t.Fatalf("comm-free jobs must get γ=1: %v", g)
	}
}

func TestInterferenceMemoKeyKeepsFullCommFrac(t *testing.T) {
	// Comm fractions that agree to nine significant digits but not beyond
	// are different jobs: pricing one set must not answer the other from
	// the memo.
	set := func(cf float64) []JobTraffic {
		return []JobTraffic{
			{Placement: placeAt([]int{0, 1}, []int{0, 2}), CommFrac: cf},
			{Placement: placeAt([]int{0, 1}, []int{1, 5}), CommFrac: cf},
			{Placement: placeAt([]int{0, 1}, []int{3, 7}), CommFrac: cf},
		}
	}
	newModel := func() *Interference { return &Interference{BoardA: 2, BoardB: 2, GroupBoards: 2, Taper: 0.25} }
	near, exact := 0.30000000001, 0.3
	if a, b := newModel().Gammas(8, 8, set(near)), newModel().Gammas(8, 8, set(exact)); a[0] == b[0] {
		t.Fatalf("premise: γ %v is the same for comm fractions %v and %v", a[0], near, exact)
	}
	in := newModel()
	in.Gammas(8, 8, set(near))
	got := in.Gammas(8, 8, set(exact))
	want := newModel().Gammas(8, 8, set(exact))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("γ[%d] = %v after pricing comm fraction %v first, fresh model %v", i, got[i], near, want[i])
		}
	}
}

// randomJobSets draws n sets of board-disjoint placements on an 8×8 grid
// from a shared pool, so the sets overlap in jobs and sub-sets.
func randomJobSets(n int, seed int64) [][]JobTraffic {
	rng := rand.New(rand.NewSource(seed))
	g := alloc.NewGrid(8, 8)
	var pool []JobTraffic
	for job := int32(0); job < 40; job++ {
		if p, ok := g.Allocate(job, 1+rng.Intn(3), 1+rng.Intn(4), alloc.Options{Transpose: true}); ok {
			pool = append(pool, JobTraffic{Placement: p, CommFrac: 0.1 + 0.8*rng.Float64()})
		}
	}
	sets := make([][]JobTraffic, n)
	for i := range sets {
		for _, k := range rng.Perm(len(pool))[:2+rng.Intn(len(pool)-1)] {
			sets[i] = append(sets[i], pool[k])
		}
	}
	return sets
}

func TestInterferenceConcurrentPricingMatchesSerial(t *testing.T) {
	// Workers sharing one model, whose memos they empty every few
	// pricings while the others price, must each get the bits a fresh
	// model computes serially, whichever worker solves a set first.
	sets := randomJobSets(24, 7)
	newModel := func() *Interference { return &Interference{BoardA: 2, BoardB: 2, GroupBoards: 2, Taper: 0.25} }
	want := make([][]float64, len(sets))
	for i, set := range sets {
		want[i] = newModel().Gammas(8, 8, set)
	}
	shared := newModel()
	emptyMemos := func() {
		shared.mu.Lock()
		clear(shared.memo)
		for _, cn := range shared.nets {
			clear(cn.solo)
		}
		shared.mu.Unlock()
	}
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range sets {
					i := (k + w*len(sets)/workers) % len(sets)
					got := shared.Gammas(8, 8, sets[i])
					if (k+w)%5 == 0 {
						emptyMemos()
					}
					for j := range got {
						if got[j] != want[i][j] {
							errs <- fmt.Errorf("worker %d set %d: γ[%d] = %v, serial %v", w, i, j, got[j], want[i][j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := shared.Stats(); st.Solves+st.MemoHits != workers*3*int64(len(sets)) {
		t.Fatalf("counters %+v do not add up to %d pricings", st, workers*3*len(sets))
	}
}

func TestInterferenceDemandsMatchPairAccumulator(t *testing.T) {
	// addDemands' closed-form weights and (tree, source, destination)
	// order must equal accumulating w into a map keyed that way over the
	// board-pair loop and sorting the keys, for placements in any
	// row/column order.
	in := &Interference{BoardA: 2, BoardB: 4, GroupBoards: 2, Taper: 0.5}
	cn := in.net(8, 8)
	rng := rand.New(rand.NewSource(5))
	sameDemand := func(a, b flowsim.Demand) bool {
		return slices.Equal(a.Ports, b.Ports) && a.Weight == b.Weight && a.Tenant == b.Tenant
	}
	for _, set := range randomJobSets(30, 11) {
		for tenant, j := range set {
			p := *j.Placement
			p.Rows = slices.Clone(p.Rows)
			p.Cols = slices.Clone(p.Cols)
			rng.Shuffle(len(p.Rows), func(a, b int) { p.Rows[a], p.Rows[b] = p.Rows[b], p.Rows[a] })
			rng.Shuffle(len(p.Cols), func(a, b int) { p.Cols[a], p.Cols[b] = p.Cols[b], p.Cols[a] })
			j.Placement = &p
			pr := &pricer{}
			in.addDemands(cn, pr, j, int32(tenant))
			want := pairAccumulatorDemands(cn, j, int32(tenant))
			if !slices.EqualFunc(pr.demands, want, sameDemand) {
				t.Fatalf("placement rows %v cols %v: demands\n%v\nwant\n%v", p.Rows, p.Cols, pr.demands, want)
			}
		}
	}
}

// pairAccumulatorDemands states the demand sums directly: every ordered
// board pair adds w to its row-tree segment at the source row and its
// column-tree segment at the destination column, accumulated per (tree,
// source, destination) in a map whose keys are then sorted. Row tree r is
// tree r and column tree c is tree Y+c; positions index the tree's
// endpoints.
func pairAccumulatorDemands(cn *contentionNet, j JobTraffic, tenant int32) []flowsim.Demand {
	p := j.Placement
	nBoards := p.U() * p.V()
	if nBoards <= 1 || j.CommFrac <= 0 {
		return nil
	}
	ab := float64(2 * 4)
	w := 4 * ab * topo.DefaultLinkParams().GBps * j.CommFrac * ab / (float64(nBoards)*ab - 1)
	Y := len(cn.rowEp)
	agg := map[[3]int]float64{}
	add := func(tree, src, dst int) { agg[[3]int{tree, src, dst}] += w }
	for _, r1 := range p.Rows {
		for _, c1 := range p.Cols {
			for _, r2 := range p.Rows {
				for _, c2 := range p.Cols {
					switch {
					case r1 == r2 && c1 == c2:
					case r1 == r2:
						add(r1, c1, c2)
					case c1 == c2:
						add(Y+c1, r1, r2)
					default:
						add(r1, c1, c2)
						add(Y+c2, r1, r2)
					}
				}
			}
		}
	}
	keys := slices.Collect(maps.Keys(agg))
	slices.SortFunc(keys, func(a, b [3]int) int { return slices.Compare(a[:], b[:]) })
	trees := slices.Concat(cn.rowEp, cn.colEp)
	var out []flowsim.Demand
	for _, k := range keys {
		ep := trees[k[0]]
		out = append(out, flowsim.Demand{Ports: cn.appendPath(nil, ep[k[1]], ep[k[2]]), Weight: agg[k], Tenant: tenant})
	}
	return out
}

func TestContentionPathsMatchRouting(t *testing.T) {
	// Every tree of the contention net has one path between any two of
	// its endpoints, and every hop is a parallel-link group of one: the
	// path appendPath writes is the one the routing table's sampler finds
	// on the same compiled net, whatever the seed.
	for _, group := range []int{2, 3, 16} {
		cn := (&Interference{GroupBoards: group}).net(8, 12)
		table := routing.NewTable(cn.comp)
		seed := uint64(0)
		for _, tree := range slices.Concat(cn.rowEp, cn.colEp) {
			for _, src := range tree {
				for _, dst := range tree {
					if src == dst {
						continue
					}
					seed++
					got := cn.appendPath(nil, src, dst)
					_, want, err := table.AppendSamplePathPorts(nil, make([]int32, 0, 4), src, dst, seed)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("group %d, %d -> %d: path %v, routing samples %v", group, src, dst, got, want)
					}
					for _, pid := range got {
						if n := len(cn.comp.GroupMembers(cn.comp.GroupOf[pid])); n != 1 {
							t.Fatalf("group %d, %d -> %d: port %d is one of %d parallel links", group, src, dst, pid, n)
						}
					}
				}
			}
		}
	}
}
