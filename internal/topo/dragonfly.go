package topo

import "fmt"

// DragonflyConfig is the canonical Dragonfly parameterization of Kim et al.
// used by the paper: a routers per group, p terminals per router, h global
// links per router, g groups. Intra-group links are DAC, global links AoC.
type DragonflyConfig struct {
	A, P, H, G int
	LP         LinkParams
}

// SmallDragonfly is the paper's ≈1k-endpoint configuration: a=16, p=8, h=8,
// 8 groups → 1,024 terminals.
func SmallDragonfly(lp LinkParams) DragonflyConfig {
	return DragonflyConfig{A: 16, P: 8, H: 8, G: 8, LP: lp}
}

// LargeDragonfly is the paper's ≈16k-endpoint configuration: a=32, p=17,
// h=16, 30 groups → 16,320 terminals.
func LargeDragonfly(lp LinkParams) DragonflyConfig {
	return DragonflyConfig{A: 32, P: 17, H: 16, G: 30, LP: lp}
}

// NewDragonfly builds a single plane of a Dragonfly. Global links are
// distributed so that every group pair receives ⌊a·h/(g-1)⌋ or
// ⌈a·h/(g-1)⌉ links, assigned round-robin to routers.
func NewDragonfly(cfg DragonflyConfig) *Network {
	if cfg.G < 2 || cfg.A < 1 || cfg.P < 1 || cfg.H < 0 {
		panic(fmt.Sprintf("topo: invalid dragonfly %+v", cfg))
	}
	if cfg.A*cfg.H < cfg.G-1 {
		panic(fmt.Sprintf("topo: dragonfly with a*h=%d cannot connect %d groups", cfg.A*cfg.H, cfg.G))
	}
	lp := cfg.LP
	n := &Network{Name: fmt.Sprintf("dragonfly-a%dp%dh%dg%d", cfg.A, cfg.P, cfg.H, cfg.G)}
	n.Meta = Meta{Family: "dragonfly", Planes: lp.NumPlanes, NumAccels: cfg.G * cfg.A * cfg.P}

	routers := make([][]NodeID, cfg.G)
	for g := 0; g < cfg.G; g++ {
		routers[g] = make([]NodeID, cfg.A)
		for r := 0; r < cfg.A; r++ {
			sw := n.AddNode(Switch)
			routers[g][r] = sw
			for t := 0; t < cfg.P; t++ {
				n.Link(n.AddNode(Endpoint), sw, DAC, lp.GBps, lp.CableNS)
			}
		}
	}
	// Intra-group full mesh.
	for g := 0; g < cfg.G; g++ {
		for i := 0; i < cfg.A; i++ {
			for j := i + 1; j < cfg.A; j++ {
				n.Link(routers[g][i], routers[g][j], DAC, lp.GBps, lp.CableNS)
			}
		}
	}
	// Global links: per ordered pair decide a link count, then attach the
	// endpoints of each link round-robin within each group.
	slots := make([]int, cfg.G) // next router slot per group
	totalPerGroup := cfg.A * cfg.H
	pairs := cfg.G - 1
	base := totalPerGroup / pairs
	rem := totalPerGroup % pairs
	for gi := 0; gi < cfg.G; gi++ {
		for gj := gi + 1; gj < cfg.G; gj++ {
			// Each group has two pairs at every circular distance cd < g/2
			// and one at cd == g/2 (g even). Handing the rem extra links to
			// the smallest circular distances keeps every group at exactly
			// a*h global ports (when rem is odd this needs g even, which
			// holds for the paper's configurations; otherwise the count is
			// off by at most one port per group).
			links := base
			d := gj - gi
			cd := d
			if cfg.G-d < cd {
				cd = cfg.G - d
			}
			if rem%2 == 0 {
				if cd <= rem/2 {
					links++
				}
			} else if cd <= (rem-1)/2 || 2*cd == cfg.G {
				links++
			}
			for l := 0; l < links; l++ {
				ri := routers[gi][slots[gi]%cfg.A]
				rj := routers[gj][slots[gj]%cfg.A]
				slots[gi]++
				slots[gj]++
				n.Link(ri, rj, AoC, lp.GBps, lp.CableNS)
			}
		}
	}
	return n
}
