package topo

import "fmt"

// NewTorus2D builds a single plane of a 2D torus of w×h accelerators.
// The accelerators sit on boardA×boardB PCB boards (the paper's torus
// baseline uses 2×2 boards); links within a board are PCB, links between
// boards are DAC (the torus baseline uses no switches and no AoC cables).
// Wrap-around links close each ring.
func NewTorus2D(w, h, boardA, boardB int, lp LinkParams) *Network {
	if w < 2 || h < 2 || boardA < 1 || boardB < 1 {
		panic(fmt.Sprintf("topo: invalid torus %dx%d boards %dx%d", w, h, boardA, boardB))
	}
	n := &Network{Name: fmt.Sprintf("torus-%dx%d", w, h)}
	n.Meta = Meta{
		Family: "torus", Planes: lp.NumPlanes,
		BoardA: boardA, BoardB: boardB, GlobalX: w / boardA, GlobalY: h / boardB,
		NumAccels: w * h,
	}
	at := make([][]NodeID, h)
	for gy := 0; gy < h; gy++ {
		at[gy] = make([]NodeID, w)
		for gx := 0; gx < w; gx++ {
			at[gy][gx] = n.AddNode(Endpoint)
		}
	}
	link := func(x1, y1, x2, y2 int) {
		sameBoard := x1/boardA == x2/boardA && y1/boardB == y2/boardB
		class, lat := DAC, lp.CableNS
		if sameBoard {
			class, lat = PCB, lp.TraceNS
		}
		n.Link(at[y1][x1], at[y2][x2], class, lp.GBps, lat)
	}
	for gy := 0; gy < h; gy++ {
		for gx := 0; gx < w; gx++ {
			link(gx, gy, (gx+1)%w, gy)
		}
	}
	for gx := 0; gx < w; gx++ {
		for gy := 0; gy < h; gy++ {
			link(gx, gy, gx, (gy+1)%h)
		}
	}
	return n
}
