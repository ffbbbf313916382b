package topo

import "fmt"

// HxMeshConfig parameterizes a single plane of a 2D HammingMesh.
//
// A board is an a×b mesh of accelerators connected by PCB traces. Boards are
// arranged in an x×y grid. Along the x dimension, each of the b accelerator
// rows of a board row is connected — through the W port of the west-edge
// accelerator and the E port of the east-edge accelerator of every board —
// by a logically fully-connected network (a single 64-port switch when it
// fits, otherwise a two-level fat tree). The y dimension is symmetric using
// N/S ports. This mirrors Figure 3 and Appendix C of the paper.
type HxMeshConfig struct {
	A, B int // board dimensions (accelerators per board: a in x, b in y)
	X, Y int // global dimensions (boards)
	// Taper removes uplinks from the per-dimension fat trees (§III-F).
	// 0 means full bandwidth. Only relevant when a dimension needs a
	// two-level tree.
	Taper float64
	// MergeRowSwitch: when 2*B*X (resp. 2*A*Y) ports fit a single 64-port
	// switch, use one switch per board row/column as in the paper's small
	// cluster configurations. Enabled by default via NewHxMesh.
	MergeRowSwitch bool
	LP             LinkParams
}

// HxMesh is the built single-plane network plus index structures used by
// routing, allocation and the collective mapper.
type HxMesh struct {
	*Network
	Cfg HxMeshConfig
	// AccelAt[gy][gx] is the endpoint at global accelerator coordinates.
	AccelAt [][]NodeID
	// RowSwitches[by] and ColSwitches[bx] list the switches of the
	// respective dimension networks (all levels).
	RowSwitches [][]NodeID
	ColSwitches [][]NodeID
}

// NewHxMesh builds a single plane of an a×b-board x×y HammingMesh with the
// paper's default construction rules.
func NewHxMesh(a, b, x, y int, lp LinkParams) *HxMesh {
	return NewHxMeshConfig(HxMeshConfig{A: a, B: b, X: x, Y: y, MergeRowSwitch: true, LP: lp})
}

// NewHyperX2D builds a 2D HyperX, which is isomorphic to an Hx1Mesh (1x1
// boards): each switch-equivalent accelerator is dimension-wise fully
// connected through the row/column networks (footnote 2 of the paper).
func NewHyperX2D(x, y int, lp LinkParams) *HxMesh {
	h := NewHxMesh(1, 1, x, y, lp)
	h.Network.Name = fmt.Sprintf("hyperx-%dx%d", x, y)
	h.Network.Meta.Family = "hyperx"
	return h
}

// NewHxMeshConfig builds the network from an explicit configuration.
func NewHxMeshConfig(cfg HxMeshConfig) *HxMesh {
	if cfg.A < 1 || cfg.B < 1 || cfg.X < 1 || cfg.Y < 1 {
		panic(fmt.Sprintf("topo: invalid HxMesh config %+v", cfg))
	}
	lp := cfg.LP
	n := &Network{Name: fmt.Sprintf("hx%dx%dmesh-%dx%d", cfg.A, cfg.B, cfg.X, cfg.Y)}
	n.Meta = Meta{
		Family: "hxmesh", Planes: lp.NumPlanes,
		BoardA: cfg.A, BoardB: cfg.B, GlobalX: cfg.X, GlobalY: cfg.Y,
		Taper: cfg.Taper, NumAccels: cfg.A * cfg.B * cfg.X * cfg.Y,
	}
	h := &HxMesh{Network: n, Cfg: cfg}

	gw, gh := cfg.X*cfg.A, cfg.Y*cfg.B // accelerators across / down
	h.AccelAt = make([][]NodeID, gh)
	for gy := 0; gy < gh; gy++ {
		h.AccelAt[gy] = make([]NodeID, gw)
		for gx := 0; gx < gw; gx++ {
			id := n.AddNode(Endpoint)
			n.Nodes[id].Coord = [4]int16{int16(gx), int16(gy), int16(gx / cfg.A), int16(gy / cfg.B)}
			h.AccelAt[gy][gx] = id
		}
	}
	// On-board PCB mesh links.
	for gy := 0; gy < gh; gy++ {
		for gx := 0; gx < gw; gx++ {
			if gx+1 < gw && gx/cfg.A == (gx+1)/cfg.A {
				n.Link(h.AccelAt[gy][gx], h.AccelAt[gy][gx+1], PCB, lp.GBps, lp.TraceNS)
			}
			if gy+1 < gh && gy/cfg.B == (gy+1)/cfg.B {
				n.Link(h.AccelAt[gy][gx], h.AccelAt[gy+1][gx], PCB, lp.GBps, lp.TraceNS)
			}
		}
	}
	spec := TaperedTree(cfg.Taper)
	radix := spec.Radix

	// Row networks (x dimension, DAC to endpoints).
	h.RowSwitches = make([][]NodeID, cfg.Y)
	for by := 0; by < cfg.Y; by++ {
		if cfg.MergeRowSwitch && 2*cfg.B*cfg.X <= radix {
			// One switch for the whole board row.
			var attach []NodeID
			for j := 0; j < cfg.B; j++ {
				gy := by*cfg.B + j
				for bx := 0; bx < cfg.X; bx++ {
					attach = append(attach, h.AccelAt[gy][bx*cfg.A])         // W port
					attach = append(attach, h.AccelAt[gy][bx*cfg.A+cfg.A-1]) // E port
				}
			}
			h.RowSwitches[by] = attachTree(n, attach, DAC, lp, spec)
			continue
		}
		// One network per accelerator line (q = 2x ports each).
		for j := 0; j < cfg.B; j++ {
			gy := by*cfg.B + j
			var attach []NodeID
			for bx := 0; bx < cfg.X; bx++ {
				attach = append(attach, h.AccelAt[gy][bx*cfg.A])
				attach = append(attach, h.AccelAt[gy][bx*cfg.A+cfg.A-1])
			}
			h.RowSwitches[by] = append(h.RowSwitches[by], attachTree(n, attach, DAC, lp, spec)...)
		}
	}
	// Column networks (y dimension, AoC to endpoints).
	h.ColSwitches = make([][]NodeID, cfg.X)
	for bx := 0; bx < cfg.X; bx++ {
		if cfg.MergeRowSwitch && 2*cfg.A*cfg.Y <= radix {
			var attach []NodeID
			for i := 0; i < cfg.A; i++ {
				gx := bx*cfg.A + i
				for by := 0; by < cfg.Y; by++ {
					attach = append(attach, h.AccelAt[by*cfg.B][gx])         // S port
					attach = append(attach, h.AccelAt[by*cfg.B+cfg.B-1][gx]) // N port
				}
			}
			h.ColSwitches[bx] = attachTree(n, attach, AoC, lp, spec)
			continue
		}
		for i := 0; i < cfg.A; i++ {
			gx := bx*cfg.A + i
			var attach []NodeID
			for by := 0; by < cfg.Y; by++ {
				attach = append(attach, h.AccelAt[by*cfg.B][gx])
				attach = append(attach, h.AccelAt[by*cfg.B+cfg.B-1][gx])
			}
			h.ColSwitches[bx] = append(h.ColSwitches[bx], attachTree(n, attach, AoC, lp, spec)...)
		}
	}
	return h
}

// Accel returns the endpoint at global accelerator coordinates (gx, gy).
func (h *HxMesh) Accel(gx, gy int) NodeID { return h.AccelAt[gy][gx] }

// BoardAccels returns all endpoints on board (bx, by) in row-major order.
func (h *HxMesh) BoardAccels(bx, by int) []NodeID {
	out := make([]NodeID, 0, h.Cfg.A*h.Cfg.B)
	for j := 0; j < h.Cfg.B; j++ {
		for i := 0; i < h.Cfg.A; i++ {
			out = append(out, h.AccelAt[by*h.Cfg.B+j][bx*h.Cfg.A+i])
		}
	}
	return out
}
