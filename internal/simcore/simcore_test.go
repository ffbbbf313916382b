package simcore

import (
	"testing"

	"hammingmesh/internal/topo"
)

// tableIINetworks builds a tiny instance of every Table II topology family.
func tableIINetworks() map[string]*topo.Network {
	lp := topo.DefaultLinkParams()
	return map[string]*topo.Network{
		"fattree":   topo.NewFatTree(64, topo.NonblockingTree(), lp),
		"fattree50": topo.NewFatTree(64, topo.TaperedTree(0.5), lp),
		"fattree75": topo.NewFatTree(64, topo.TaperedTree(0.75), lp),
		"dragonfly": topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 8, LP: lp}),
		"hyperx":    topo.NewHyperX2D(8, 8, lp).Network,
		"hx2mesh":   topo.NewHxMesh(2, 2, 4, 4, lp).Network,
		"hx4mesh":   topo.NewHxMesh(4, 4, 2, 2, lp).Network,
		"torus":     topo.NewTorus2D(8, 8, 2, 2, lp),
	}
}

// TestCompileRoundTrip checks that Compile preserves every port of every
// Table II topology family: order, peer, reverse port, bandwidth and
// latency, plus the endpoint rank index and switch list.
func TestCompileRoundTrip(t *testing.T) {
	for name, n := range tableIINetworks() {
		t.Run(name, func(t *testing.T) {
			if err := n.Validate(); err != nil {
				t.Fatal(err)
			}
			c := Compile(n)
			if c.NumNodes() != len(n.Nodes) {
				t.Fatalf("NumNodes = %d, want %d", c.NumNodes(), len(n.Nodes))
			}
			totalPorts := 0
			for i := range n.Nodes {
				node := &n.Nodes[i]
				totalPorts += len(node.Ports)
				if got := c.Kind[i]; got != node.Kind {
					t.Fatalf("node %d kind %v, want %v", i, got, node.Kind)
				}
				ports := c.PortsOf(int32(i))
				if len(ports) != len(node.Ports) {
					t.Fatalf("node %d has %d compiled ports, want %d", i, len(ports), len(node.Ports))
				}
				for pi, p := range node.Ports {
					cp := ports[pi]
					if topo.NodeID(cp.To) != p.To || cp.GBps != p.GBps || cp.Latency != p.Latency {
						t.Fatalf("node %d port %d mismatch: %+v vs %+v", i, pi, cp, p)
					}
					if want := c.PortID(int32(p.To), int(p.ToPort)); cp.Rev != want {
						t.Fatalf("node %d port %d Rev = %d, want %d", i, pi, cp.Rev, want)
					}
					if c.Owner[c.PortID(int32(i), pi)] != int32(i) {
						t.Fatalf("node %d port %d owner mismatch", i, pi)
					}
					// Reverse of the reverse is the port itself.
					if got := c.Ports[cp.Rev].Rev; got != c.PortID(int32(i), pi) {
						t.Fatalf("node %d port %d double-reverse = %d", i, pi, got)
					}
				}
			}
			if c.NumPorts() != totalPorts {
				t.Fatalf("NumPorts = %d, want %d", c.NumPorts(), totalPorts)
			}
			// Endpoint ranks round-trip.
			if c.NumEndpoints() != n.NumEndpoints() {
				t.Fatalf("NumEndpoints = %d, want %d", c.NumEndpoints(), n.NumEndpoints())
			}
			for r, id := range n.Endpoints {
				if c.Endpoints[r] != id || c.RankOf[id] != int32(r) {
					t.Fatalf("endpoint rank %d round-trip failed", r)
				}
			}
			nSwitches := 0
			for i := range n.Nodes {
				if n.Nodes[i].Kind == topo.Switch {
					if c.RankOf[i] != -1 {
						t.Fatalf("switch %d has rank %d", i, c.RankOf[i])
					}
					nSwitches++
				}
			}
			if len(c.Switches) != nSwitches {
				t.Fatalf("%d switches compiled, want %d", len(c.Switches), nSwitches)
			}
		})
	}
}

// TestCompileParallelGroups checks that every parallel-link group contains
// exactly the ports connecting one ordered node pair.
func TestCompileParallelGroups(t *testing.T) {
	for name, n := range tableIINetworks() {
		t.Run(name, func(t *testing.T) {
			c := Compile(n)
			nGroups := len(c.GroupOff) - 1
			covered := 0
			for g := 0; g < nGroups; g++ {
				members := c.GroupMembers(int32(g))
				if len(members) == 0 {
					t.Fatalf("group %d empty", g)
				}
				u, v := c.Owner[members[0]], c.Ports[members[0]].To
				for _, pid := range members {
					if c.Owner[pid] != u || c.Ports[pid].To != v {
						t.Fatalf("group %d mixes node pairs", g)
					}
					if c.GroupOf[pid] != int32(g) {
						t.Fatalf("port %d GroupOf mismatch", pid)
					}
				}
				if got := c.GroupTo(u, v); got != int32(g) {
					t.Fatalf("GroupTo(%d,%d) = %d, want %d", u, v, got, g)
				}
				covered += len(members)
			}
			if covered != c.NumPorts() {
				t.Fatalf("groups cover %d ports, want %d", covered, c.NumPorts())
			}
		})
	}
}

// TestBFSMatchesTopo checks the CSR BFS against the reference topo BFS.
func TestBFSMatchesTopo(t *testing.T) {
	for name, n := range tableIINetworks() {
		c := Compile(n)
		srcs := []topo.NodeID{0, n.Endpoints[0], n.Endpoints[len(n.Endpoints)-1]}
		for _, src := range srcs {
			want := topo.BFSFrom(n, src)
			got := c.BFSFrom(src)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: BFS from %d differs at node %d: %d vs %d", name, src, i, got[i], want[i])
				}
			}
		}
	}
}

// TestOfCaches checks that the network-keyed compilation cache returns the
// same Compiled for repeated calls.
func TestOfCaches(t *testing.T) {
	n := topo.NewTorus2D(4, 4, 2, 2, topo.DefaultLinkParams())
	if Of(n) != Of(n) {
		t.Fatal("Of did not cache")
	}
}
