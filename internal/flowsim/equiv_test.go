package flowsim

import (
	"math"
	"math/rand"
	"testing"

	"hammingmesh/internal/faults"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// equivCase builds one (topology, fault fraction) fabric for the
// incremental-vs-reference equivalence sweep.
type equivCase struct {
	name  string
	net   *topo.Network
	cfg   Config
	fracs []float64
}

func equivCases() []equivCase {
	lp := topo.DefaultLinkParams()
	fracs := []float64{0, 0.05, 0.1}
	return []equivCase{
		{"hx2mesh", topo.NewHxMesh(2, 2, 4, 4, lp).Network, Config{Seed: 3}, fracs},
		{"hx4mesh", topo.NewHxMesh(4, 4, 2, 2, lp).Network, Config{Seed: 5}, fracs},
		{"dragonfly", topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 8, LP: lp}), Config{Seed: 7, ValiantPaths: 4}, fracs},
		// 128 endpoints: the 64-endpoint builds fit one switch, leaving only
		// endpoint-bridge cables the connectivity-preserving sampler refuses.
		{"fattree", topo.NewFatTree(128, topo.TaperedTree(0.5), lp), Config{Seed: 9}, fracs},
	}
}

// TestIncrementalMatchesReference pins the tentpole correctness bar: the
// event-driven waterfill must reproduce the round-based reference within
// 1e-6 per flow on pristine and degraded fabrics, across randomized shift
// and permutation traffic. Both solvers are fresh, so the round-robin
// channel cursors and sampled paths are identical and any difference is the
// water-filling itself.
func TestIncrementalMatchesReference(t *testing.T) {
	for _, tc := range equivCases() {
		comp := simcore.Compile(tc.net)
		for _, frac := range tc.fracs {
			table := routing.NewTable(comp)
			if frac > 0 {
				b := faults.NewBuilder(comp)
				b.AcceptedConnectedLinks(frac, 41)
				fs := b.Build()
				if fs.Zero() {
					t.Fatalf("%s frac %.2f: sampler failed no links", tc.name, frac)
				}
				table = routing.NewTableMask(comp, fs.Mask())
			}
			rng := rand.New(rand.NewSource(17))
			var flowSets [][]Flow
			for _, shift := range []int{1, 3, len(comp.Endpoints) / 2} {
				flowSets = append(flowSets, ShiftFlows(comp.Endpoints, shift))
			}
			perm := rng.Perm(len(comp.Endpoints))
			for i := range perm {
				if perm[i] == i {
					j := (i + 1) % len(perm)
					perm[i], perm[j] = perm[j], perm[i]
				}
			}
			var permFlows []Flow
			for i, j := range perm {
				permFlows = append(permFlows, Flow{Src: comp.Endpoints[i], Dst: comp.Endpoints[j]})
			}
			flowSets = append(flowSets, permFlows)

			for fsIdx, flows := range flowSets {
				got, err := New(comp, table, tc.cfg).Solve(flows)
				if err != nil {
					t.Fatalf("%s frac %.2f set %d: incremental: %v", tc.name, frac, fsIdx, err)
				}
				want, err := New(comp, table, tc.cfg).SolveReference(flows)
				if err != nil {
					t.Fatalf("%s frac %.2f set %d: reference: %v", tc.name, frac, fsIdx, err)
				}
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-6 {
						t.Fatalf("%s frac %.2f set %d flow %d: incremental %.9f vs reference %.9f",
							tc.name, frac, fsIdx, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSolverReuseIsDeterministic checks that reusing one solver across
// Solve calls gives the same rates as the same call sequence on a fresh
// solver: scratch-state reuse must be invisible to results.
func TestSolverReuseIsDeterministic(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	comp := simcore.Compile(h.Network)
	shifts := []int{1, 5, 9, 2, 5}

	reused := New(comp, nil, Config{Seed: 21, ValiantPaths: 2})
	var reusedRates [][]float64
	for _, sh := range shifts {
		r, err := reused.Solve(ShiftFlows(comp.Endpoints, sh))
		if err != nil {
			t.Fatal(err)
		}
		reusedRates = append(reusedRates, r)
	}

	fresh := New(comp, nil, Config{Seed: 21, ValiantPaths: 2})
	for si, sh := range shifts {
		want, err := fresh.Solve(ShiftFlows(comp.Endpoints, sh))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if reusedRates[si][i] != want[i] {
				t.Fatalf("shift %d flow %d: reused %.12f != sequential %.12f", sh, i, reusedRates[si][i], want[i])
			}
		}
	}
}

// TestSampleShiftsMatchesShare pins that SampleShifts is the exact shift
// sequence AlltoallShareOver consumes (the pooled runner sweep depends on
// this to mirror the serial estimator).
func TestSampleShiftsMatchesShare(t *testing.T) {
	shifts := SampleShifts(100, 6, 13)
	if len(shifts) != 6 {
		t.Fatalf("got %d shifts, want 6", len(shifts))
	}
	for _, s := range shifts {
		if s < 1 || s > 99 {
			t.Fatalf("shift %d out of [1,99]", s)
		}
	}
	// Unbounded request clamps to p-1.
	if got := len(SampleShifts(16, 0, 1)); got != 15 {
		t.Fatalf("clamped shifts = %d, want 15", got)
	}
}
