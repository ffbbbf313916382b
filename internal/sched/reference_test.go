package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/analysis"
	"hammingmesh/internal/flowsim"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// refSlowdown is the reference the process-wide shape memo is checked
// against: a model that keeps its own memo, solves every shape it prices
// itself, anchors the analytic bound on its own flow solve and divides by
// a looked-up single-board share.
type refSlowdown struct {
	cfg CommSlowdown // the options; its defaults() fills them in

	mu    sync.Mutex
	cache map[[2]int]*refSlot

	refOnce  sync.Once
	refScale float64
}

type refSlot struct {
	once  sync.Once
	share float64
}

func (m *refSlowdown) contendedSlowdown(p *alloc.Placement, job TraceJob, gamma float64) float64 {
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
	_, _, group, penalty := m.cfg.defaults()
	share := m.shapeShare(p.U(), p.V())
	ref := m.shapeShare(1, 1)
	if share <= 0 {
		share = 1e-3
	}
	commCost := (ref / share) * (1 + penalty*gamma*alloc.UpperLayerFraction(p, alloc.TrafficAlltoall, group))
	if commCost < 1 {
		commCost = 1
	}
	return (1 - cf) + cf*commCost
}

func (m *refSlowdown) shapeShare(u, v int) float64 {
	key := [2]int{u, v}
	m.mu.Lock()
	if m.cache == nil {
		m.cache = make(map[[2]int]*refSlot)
	}
	slot, ok := m.cache[key]
	if !ok {
		slot = &refSlot{}
		m.cache[key] = slot
	}
	m.mu.Unlock()
	slot.once.Do(func() { slot.share = m.computeShare(u, v) })
	return slot.share
}

func (m *refSlowdown) computeShare(u, v int) float64 {
	a, b, _, _ := m.cfg.defaults()
	if u*v <= 1 {
		return 1
	}
	if u*v*a*b > maxAccels {
		return analysis.AlltoallShareMesh(a, b, u, v) * m.boundaryScale()
	}
	return m.flowShare(u, v)
}

func (m *refSlowdown) flowShare(u, v int) float64 {
	a, b, _, _ := m.cfg.defaults()
	h := topo.NewHxMesh(a, b, u, v, topo.DefaultLinkParams())
	c := simcore.Compile(h.Network)
	table := routing.NewTable(c)
	s := flowsim.New(c, table, flowsim.Config{Seed: 1})
	inj := 4 * topo.DefaultLinkParams().GBps
	share, err := s.AlltoallShareOver(c.Endpoints, shapeShifts, inj, 1)
	if err != nil {
		return analysis.AlltoallShareMesh(a, b, u, v)
	}
	return share
}

func (m *refSlowdown) boundaryScale() float64 {
	m.refOnce.Do(func() {
		a, b, _, _ := m.cfg.defaults()
		s := 1
		for (s+1)*(s+1)*a*b <= maxAccels {
			s++
		}
		if s < 2 {
			m.refScale = 1
			return
		}
		bound := analysis.AlltoallShareMesh(a, b, s, s)
		flow := m.flowShare(s, s)
		if bound <= 0 || flow <= 0 {
			m.refScale = 1
			return
		}
		m.refScale = flow / bound
	})
	return m.refScale
}

// Shares read from the process-wide memo equal a fresh per-model solve
// bit for bit, for flow-solved shapes, analytic shapes and the anchor,
// read through models that differ in the options the memo key leaves out,
// from goroutines pricing in different orders.
func TestShapeMemoMatchesPerModelReference(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver shape estimates are slow")
	}
	// An empty memo makes every -count repetition solve its shapes
	// instead of only hitting the entries of the run before.
	shapeShares.Clear()
	// anchor is the side of the largest flow-solved square (1,024
	// accelerators); the shapes above it price by the analytic bound.
	type grid struct{ a, b, anchor int }
	grids := []grid{{2, 2, 16}, {4, 4, 8}}
	const maxSide = 6
	shapes := make([][][2]int, len(grids)) // per grid, all of one length
	for g, gr := range grids {
		for u := 1; u <= maxSide; u++ {
			for v := 1; v <= maxSide; v++ {
				shapes[g] = append(shapes[g], [2]int{u, v})
			}
		}
		s := gr.anchor
		shapes[g] = append(shapes[g], [2]int{s, s}, [2]int{s, s + 1}, [2]int{s + 1, s + 1})
	}
	job := TraceJob{Boards: 1, Service: 1, CommFrac: 0.5}

	// want[g][s] is shape s's share on grid g, and wantSlow[g][s] its
	// compact placement's slowdown, from one reference model per grid.
	want := make([][]float64, len(grids))
	wantSlow := make([][]float64, len(grids))
	for g, gr := range grids {
		ref := &refSlowdown{cfg: CommSlowdown{BoardA: gr.a, BoardB: gr.b}}
		for _, sh := range shapes[g] {
			want[g] = append(want[g], ref.shapeShare(sh[0], sh[1]))
			wantSlow[g] = append(wantSlow[g], ref.contendedSlowdown(contiguousPlacement(sh[0], sh[1]), job, 1))
		}
	}

	// Each worker prices through its own models, whose UpperPenalty and
	// GroupBoards differ from the other workers' and from the reference's
	// defaults, in its own shuffled order of (grid, shape) pairs.
	const workers = 4
	penalties := [workers]float64{0, -1, 0.5, 2}
	groups := [workers]int{0, 2, 4, 16}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			models := make([]*CommSlowdown, len(grids))
			for g, gr := range grids {
				models[g] = &CommSlowdown{BoardA: gr.a, BoardB: gr.b, UpperPenalty: penalties[w], GroupBoards: groups[w]}
			}
			n := len(shapes[0])
			order := rand.New(rand.NewSource(int64(w))).Perm(len(grids) * n)
			for _, i := range order {
				g, s := i/n, i%n
				u, v := shapes[g][s][0], shapes[g][s][1]
				if got := models[g].shapeShare(u, v); got != want[g][s] {
					errs <- fmt.Errorf("worker %d grid %+v shape %dx%d: share %v, reference %v", w, grids[g], u, v, got, want[g][s])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The slowdown divides by the single-board share without looking it
	// up; with the reference's default options it prices like the
	// reference, which does.
	for g, gr := range grids {
		m := &CommSlowdown{BoardA: gr.a, BoardB: gr.b}
		for s, sh := range shapes[g] {
			if got := m.ContendedSlowdown(contiguousPlacement(sh[0], sh[1]), job, 1); got != wantSlow[g][s] {
				t.Fatalf("grid %+v shape %dx%d: slowdown %v, reference %v", gr, sh[0], sh[1], got, wantSlow[g][s])
			}
		}
	}
}
