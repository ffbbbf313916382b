package alloc

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPlaceCandidates times the placement search a scheduler runs for
// every queued job: PlaceCandidates for a spread of job shapes on a
// half-occupied grid, under each sched policy's heuristics (firstfit: none;
// fragaware: transpose and aspect ratio; bestfit: those plus locality).
func BenchmarkPlaceCandidates(b *testing.B) {
	policies := []struct {
		name string
		opt  Options
	}{
		{"firstfit", Options{TreeGroupBoards: 16}},
		{"fragaware", Options{Transpose: true, AspectRatio: true, MaxAspect: 8, TreeGroupBoards: 16}},
		{"bestfit", Options{Transpose: true, AspectRatio: true, MaxAspect: 8, Locality: true, TreeGroupBoards: 16}},
	}
	shapes := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 4}, {4, 8}}
	for _, n := range []int{8, 32} {
		g := halfOccupied(n)
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
	}
}

// halfOccupied fills an n×n grid with random small jobs until half of its
// boards are owned.
func halfOccupied(n int) *Grid {
	g := NewGrid(n, n)
	rng := rand.New(rand.NewSource(1))
	for job := int32(0); g.AllocatedBoards() < n*n/2; job++ {
		g.Allocate(job, 1+rng.Intn(n/4), 1+rng.Intn(n/4), Options{})
	}
	return g
}
