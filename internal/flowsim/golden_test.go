package flowsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// TestSolverOutputBits pins the full-precision outputs of the two sampling
// entry points — Solve on a random permutation and AlltoallShare — across
// 20 seeds on three HxMesh shapes, with Valiant detours alternating off and
// on. One solver serves both calls per seed, so its round-robin cursors
// carry over as they do in a sweep. The hash is
// over %v of every float64 (the shortest repr that round-trips), so any
// change to the water-fill's arithmetic, however small, fails the test.
// Update the constant only for deliberate semantic changes.
func TestSolverOutputBits(t *testing.T) {
	lp := topo.DefaultLinkParams()
	h := fnv.New64a()
	for _, shape := range [][4]int{{2, 2, 4, 4}, {2, 2, 8, 8}, {4, 4, 4, 4}} {
		comp := simcore.Compile(topo.NewHxMesh(shape[0], shape[1], shape[2], shape[3], lp).Network)
		table := routing.NewTable(comp)
		for seed := 0; seed < 20; seed++ {
			s := New(comp, table, Config{Seed: uint64(seed), ValiantPaths: seed % 2})
			rng := rand.New(rand.NewSource(int64(seed)))
			perm := rng.Perm(len(comp.Endpoints))
			for i := range perm {
				if perm[i] == i {
					j := (i + 1) % len(perm)
					perm[i], perm[j] = perm[j], perm[i]
				}
			}
			rates, err := s.PermutationRates(perm)
			if err != nil {
				t.Fatalf("%v seed %d: Solve: %v", shape, seed, err)
			}
			share, err := s.AlltoallShare(2, 200, uint64(seed))
			if err != nil {
				t.Fatalf("%v seed %d: AlltoallShare: %v", shape, seed, err)
			}
			fmt.Fprintf(h, "%v/%d: %v | %v\n", shape, seed, rates, share)
		}
	}
	const want = 0xb59f757a35c2a4c2
	if got := h.Sum64(); got != want {
		t.Fatalf("solver output hash %#016x, want %#016x", got, uint64(want))
	}
}
