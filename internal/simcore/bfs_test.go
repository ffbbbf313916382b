package simcore_test

import (
	"math/rand"
	"slices"
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/faults"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// TestBFSBatchMatchesSingleSource pins the bit-parallel BFS to the
// single-source one: every vector of a batch equals BFSFromMask of its
// source, on every registry topology at tiny size and the small hx2mesh
// and torus; on the pristine fabric, random symmetric link failures and
// random one-directional port failures; for batches of 1, 17, 63 and 64
// sources, two of them cut off (no live port leads into them, so they
// reach nothing) and one listed twice.
func TestBFSBatchMatchesSingleSource(t *testing.T) {
	type net struct {
		name string
		size core.ClusterSize
	}
	var nets []net
	for _, name := range core.TopologyNames() {
		nets = append(nets, net{name, core.Tiny})
	}
	nets = append(nets, net{"hx2mesh", core.Small}, net{"torus", core.Small})
	for _, n := range nets {
		cl, err := core.NewByName(n.name, n.size)
		if err != nil {
			t.Fatal(err)
		}
		c := cl.Comp
		rng := rand.New(rand.NewSource(int64(len(n.name))))
		for _, fabric := range []string{"pristine", "symmetric", "one-directional"} {
			b := faults.NewBuilder(c)
			// The two cut-off sources: every port into them is down.
			cut := []topo.NodeID{c.Endpoints[0], topo.NodeID(c.NumNodes() - 1)}
			switch fabric {
			case "symmetric":
				for pid := int32(0); pid < int32(c.NumPorts()); pid++ {
					if rng.Intn(10) == 0 {
						b.FailLink(pid)
					}
				}
				for _, id := range cut {
					b.FailNode(id)
				}
			case "one-directional":
				for pid := int32(0); pid < int32(c.NumPorts()); pid++ {
					if rng.Intn(10) == 0 {
						b.FailPortDir(pid)
					}
				}
				for _, id := range cut {
					off, end := c.PortRange(int32(id))
					for pid := off; pid < end; pid++ {
						b.FailPortDir(c.Ports[pid].Rev)
					}
				}
			}
			mask := b.Build().Mask()
			for _, k := range []int{1, 17, simcore.BFSBatch - 1, simcore.BFSBatch} {
				srcs := make([]topo.NodeID, k)
				for i := range srcs {
					srcs[i] = topo.NodeID(rng.Intn(c.NumNodes()))
				}
				if k > 2 {
					srcs[0], srcs[k/2] = cut[0], cut[1]
					srcs[k-1] = srcs[1]
				}
				got := c.BFSBatchMask(srcs, mask)
				if len(got) != k {
					t.Fatalf("%s/%s %s: %d vectors for %d sources", n.name, n.size, fabric, len(got), k)
				}
				for i, src := range srcs {
					if want := c.BFSFromMask(src, mask); !slices.Equal(got[i], want) {
						t.Fatalf("%s/%s %s, batch of %d: vector %d (source %d) differs from BFSFromMask",
							n.name, n.size, fabric, k, i, src)
					}
				}
				if fabric != "pristine" && k > 2 {
					if reached := slices.IndexFunc(got[0], func(d int32) bool { return d > 0 }); reached >= 0 {
						t.Fatalf("%s/%s %s: cut-off source %d reaches node %d", n.name, n.size, fabric, srcs[0], reached)
					}
				}
			}
		}
	}
}
