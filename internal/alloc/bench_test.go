package alloc

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPlaceCandidates times the placement search a scheduler runs for
// every queued job: PlaceCandidates (whose shape loop Pick runs for
// firstfit and bestfit) for a spread of job shapes on a half-occupied
// grid, under each sched policy's heuristics (firstfit: none; fragaware:
// transpose and aspect ratio; bestfit: those plus locality).
// Those cases search a static grid; the churn case releases one job and
// commits its placement again before each round of firstfit searches, as
// a scheduler's completions and starts do, so it also times the owner
// writes that keep the free-column sets current.
func BenchmarkPlaceCandidates(b *testing.B) {
	policies := []struct {
		name string
		opt  Options
	}{
		{"firstfit", Options{}},
		{"fragaware", Options{Transpose: true, AspectRatio: true}},
		{"bestfit", Options{Transpose: true, AspectRatio: true, Locality: true}},
	}
	shapes := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 4}, {4, 8}}
	for _, n := range []int{8, 32} {
		g, placed := halfOccupied(n)
		for _, pol := range policies {
			b.Run(fmt.Sprintf("%dx%d/%s", n, n, pol.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					for _, s := range shapes {
						g.PlaceCandidates(1<<20, s[0], s[1], pol.opt)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("%dx%d/churn", n, n), func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				p := placed[i%len(placed)]
				i++
				g.Release(p.Job)
				if err := g.Commit(p); err != nil {
					b.Fatal(err)
				}
				for _, s := range shapes {
					g.PlaceCandidates(1<<20, s[0], s[1], Options{})
				}
			}
		})
	}
}

// halfOccupied fills an n×n grid with random small jobs until half of its
// boards are owned, and returns the grid and the jobs' placements.
func halfOccupied(n int) (*Grid, []*Placement) {
	g := NewGrid(n, n)
	rng := rand.New(rand.NewSource(1))
	var placed []*Placement
	for job := int32(0); g.AllocatedBoards() < n*n/2; job++ {
		if p, ok := g.Allocate(job, 1+rng.Intn(n/4), 1+rng.Intn(n/4), Options{}); ok {
			placed = append(placed, p)
		}
	}
	return g, placed
}
