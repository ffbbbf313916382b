package netsim

import (
	"math/rand"
	"testing"

	"hammingmesh/internal/topo"
)

// adversarialDragonflyFlows builds group-adversarial traffic: every
// endpoint of group g sends to the peer endpoint in group (g+1) mod G,
// concentrating all minimal routes on the few direct links between
// neighboring groups — the classic pattern where minimal routing collapses
// and UGAL detours through intermediate groups.
func adversarialDragonflyFlows(n *topo.Network, g int, bytes int64) []Flow {
	perGroup := len(n.Endpoints) / g
	flows := make([]Flow, 0, len(n.Endpoints))
	for i, ep := range n.Endpoints {
		grp := i / perGroup
		peer := n.Endpoints[((grp+1)%g)*perGroup+i%perGroup]
		flows = append(flows, Flow{Src: ep, Dst: peer, Bytes: bytes})
	}
	return flows
}

func TestUGALBeatsMinimalOnAdversarial(t *testing.T) {
	cfgDF := topo.DragonflyConfig{A: 8, P: 4, H: 4, G: 9, LP: topo.DefaultLinkParams()}
	n := topo.NewDragonfly(cfgDF)
	flows := adversarialDragonflyFlows(n, cfgDF.G, 128<<10)

	run := func(ugal bool) float64 {
		cfg := DefaultConfig()
		cfg.UGAL = UGALConfig{Enable: ugal, Candidates: 2}
		res, err := NewNet(n, nil, cfg).Run(flows)
		if err != nil {
			t.Fatal(err)
		}
		return res.AggregateGBps()
	}
	minimal := run(false)
	ugal := run(true)
	if ugal < minimal {
		t.Errorf("UGAL %.1f GB/s slower than minimal %.1f GB/s on adversarial traffic", ugal, minimal)
	}
}

func TestUGALHarmlessOnUniform(t *testing.T) {
	// On benign permutation traffic UGAL should not catastrophically
	// degrade throughput (within 2.5x of minimal; it takes longer paths).
	n := topo.NewDragonfly(topo.DragonflyConfig{A: 8, P: 4, H: 4, G: 9, LP: topo.DefaultLinkParams()})
	rng := rand.New(rand.NewSource(2))
	flows := PermutationFlows(n.Endpoints, 64<<10, rng)
	run := func(ugal bool) float64 {
		cfg := DefaultConfig()
		cfg.UGAL = UGALConfig{Enable: ugal}
		res, err := NewNet(n, nil, cfg).Run(flows)
		if err != nil {
			t.Fatal(err)
		}
		return res.AggregateGBps()
	}
	minimal, ugal := run(false), run(true)
	if ugal < minimal/2.5 {
		t.Errorf("UGAL %.1f GB/s vs minimal %.1f GB/s degrades >2.5x on uniform traffic", ugal, minimal)
	}
}
