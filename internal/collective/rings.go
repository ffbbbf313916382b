package collective

import (
	"fmt"

	"hammingmesh/internal/netsim"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// MapRing converts torus coordinates to node ids through an accessor.
func MapRing(ring []Coord, at func(row, col int) topo.NodeID) []topo.NodeID {
	out := make([]topo.NodeID, len(ring))
	for i, p := range ring {
		out[i] = at(p.Row, p.Col)
	}
	return out
}

// TwoRingsOnHxMesh returns the two edge-disjoint Hamiltonian rings over
// all accelerators of an HxMesh plane (rows = gy, cols = gx). The HxMesh
// behaves as a torus with extra links (Appendix D footnote): on-board mesh
// edges are direct, and edges between boards — including the wrap-around —
// traverse the dimension networks.
func TwoRingsOnHxMesh(h *topo.HxMesh) ([]topo.NodeID, []topo.NodeID, error) {
	rows := h.Cfg.Y * h.Cfg.B
	cols := h.Cfg.X * h.Cfg.A
	r1, r2, err := DisjointHamiltonianRings(rows, cols)
	if err != nil {
		return nil, nil, err
	}
	at := func(row, col int) topo.NodeID { return h.Accel(col, row) }
	return MapRing(r1, at), MapRing(r2, at), nil
}

// TwoRingsOnTorus returns the rings over a torus network built by
// topo.NewTorus2D with width w and height hgt.
func TwoRingsOnTorus(n *topo.Network, w, hgt int) ([]topo.NodeID, []topo.NodeID, error) {
	if w*hgt != n.NumEndpoints() {
		return nil, nil, fmt.Errorf("collective: torus %dx%d mismatches %d endpoints", w, hgt, n.NumEndpoints())
	}
	r1, r2, err := DisjointHamiltonianRings(hgt, w)
	if err != nil {
		return nil, nil, err
	}
	at := func(row, col int) topo.NodeID { return n.Endpoints[row*w+col] }
	return MapRing(r1, at), MapRing(r2, at), nil
}

// EndpointOrderRing returns all endpoints of a network in rank order as a
// logical ring (the natural mapping on fat trees and Dragonfly).
func EndpointOrderRing(n *topo.Network) []topo.NodeID {
	out := make([]topo.NodeID, len(n.Endpoints))
	copy(out, n.Endpoints)
	return out
}

// MeasureAllreduceShare runs the steady-state neighbor-exchange traffic of
// the given rings (bidirectional) through the packet simulator and returns
// the achieved allreduce bandwidth as a share of the theoretical optimum
// (half the plane injection bandwidth). Ring algorithms send 2S bytes per
// node for an S-byte allreduce at optimum inj/2 bandwidth, so the share
// equals perNodeSendGBps / injGBps. Passing the cluster's shared routing
// table (may be nil) avoids rebuilding distance vectors across repeated
// measurements.
func MeasureAllreduceShare(c *simcore.Compiled, table *routing.Table, rings [][]topo.NodeID, bytesPerFlow int64, cfg netsim.Config, injGBps float64) (float64, error) {
	var flows []netsim.Flow
	for _, ring := range rings {
		flows = append(flows, netsim.RingNeighborFlows(ring, bytesPerFlow, true)...)
	}
	if len(flows) == 0 {
		return 0, fmt.Errorf("collective: no rings given")
	}
	res, err := netsim.New(c, table, cfg).Run(flows)
	if err != nil {
		return 0, err
	}
	if res.Deadlocked {
		return 0, fmt.Errorf("collective: simulation deadlocked")
	}
	p := len(rings[0])
	perNodeSend := float64(res.TotalBytes) / float64(p) / res.Makespan // GB/s
	return perNodeSend / injGBps, nil
}

// RingLinkStress verifies that a ring maps to physically sensible hops:
// it returns the maximum shortest-path distance (in links) between
// consecutive ring members. On an HxMesh every ring edge should traverse
// at most 3 links (accel → switch/tree → accel); on a torus exactly 1.
func RingLinkStress(dist func(a, b topo.NodeID) int, ring []topo.NodeID) int {
	max := 0
	for i := range ring {
		d := dist(ring[i], ring[(i+1)%len(ring)])
		if d > max {
			max = d
		}
	}
	return max
}
