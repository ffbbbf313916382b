package topo

import "fmt"

// NewHyperXDirect builds a classic 2D HyperX (Ahn et al.): an x×y grid of
// switches, each directly connected to every switch in its row and column
// with single links, and one accelerator attached per switch through
// terminalLinks parallel links (4 to represent a full plane of the paper's
// case-study accelerator).
//
// Cost-wise the paper treats HyperX as an Hx1Mesh (Appendix C), but its
// bandwidth simulations relay traffic through the high-radix switches —
// which is what gives HyperX its 91.6% global-bandwidth share in Table II,
// well above the 50% structural bound of endpoint-relayed Hx1Mesh. Use
// NewHyperX2D for the cost-equivalent Hx1Mesh construction and this
// builder for bandwidth studies.
func NewHyperXDirect(x, y, terminalLinks int, lp LinkParams) *Network {
	if x < 2 || y < 2 || terminalLinks < 1 {
		panic(fmt.Sprintf("topo: invalid direct hyperx %dx%d t=%d", x, y, terminalLinks))
	}
	n := &Network{Name: fmt.Sprintf("hyperx-direct-%dx%d", x, y)}
	n.Meta = Meta{Family: "hyperx", Planes: lp.NumPlanes, GlobalX: x, GlobalY: y, NumAccels: x * y}
	sw := make([][]NodeID, y)
	for r := 0; r < y; r++ {
		sw[r] = make([]NodeID, x)
		for c := 0; c < x; c++ {
			s := n.AddNode(Switch)
			sw[r][c] = s
			ep := n.AddNode(Endpoint)
			for t := 0; t < terminalLinks; t++ {
				n.Link(ep, s, DAC, lp.GBps, lp.CableNS)
			}
		}
	}
	for r := 0; r < y; r++ {
		for c1 := 0; c1 < x; c1++ {
			for c2 := c1 + 1; c2 < x; c2++ {
				n.Link(sw[r][c1], sw[r][c2], DAC, lp.GBps, lp.CableNS)
			}
		}
	}
	for c := 0; c < x; c++ {
		for r1 := 0; r1 < y; r1++ {
			for r2 := r1 + 1; r2 < y; r2++ {
				n.Link(sw[r1][c], sw[r2][c], AoC, lp.GBps, lp.CableNS)
			}
		}
	}
	return n
}
