package topo

import "fmt"

// TreeSpec parameterizes a folded-Clos (fat tree) built from fixed-radix
// switches. The paper uses 64-port switches throughout; tapering removes
// uplinks at the first level only (§III-D: "fat trees are tapered beginning
// from the second level" counted from the endpoints).
type TreeSpec struct {
	Radix  int // switch port count (64 in the paper)
	L1Down int // endpoint-facing ports per first-level switch
	L1Up   int // uplinks per first-level switch (0 taper => L1Down == L1Up)
}

// NonblockingTree is the paper's nonblocking configuration (32 down / 32 up).
func NonblockingTree() TreeSpec { return TreeSpec{Radix: 64, L1Down: 32, L1Up: 32} }

// TaperedTree returns the paper's tapered configurations: 50% taper uses
// 42 down / 22 up, 75% taper uses 51 down / 13 up (Appendix C). Other
// fractions interpolate on the 64-port radix.
func TaperedTree(taper float64) TreeSpec {
	switch {
	case taper <= 0:
		return NonblockingTree()
	case taper == 0.5:
		return TreeSpec{Radix: 64, L1Down: 42, L1Up: 22}
	case taper == 0.75:
		return TreeSpec{Radix: 64, L1Down: 51, L1Up: 13}
	default:
		up := int(float64(32) * (1 - taper))
		if up < 1 {
			up = 1
		}
		return TreeSpec{Radix: 64, L1Down: 64 - up, L1Up: up}
	}
}

// attachTree connects the given attachment nodes (each contributing exactly
// one port) through a folded-Clos network and returns the created switches.
// leafClass is the cable class of the attachment links; inter-switch links
// are always AoC (§III-D). If all attachments fit a single switch, a single
// switch is created.
func attachTree(n *Network, attach []NodeID, leafClass LinkClass, lp LinkParams, spec TreeSpec) []NodeID {
	if len(attach) == 0 {
		return nil
	}
	if spec.L1Down <= 0 || spec.L1Up < 0 || spec.Radix < 2 {
		panic(fmt.Sprintf("topo: invalid tree spec %+v", spec))
	}
	var switches []NodeID
	if len(attach) <= spec.Radix {
		sw := n.AddNode(Switch)
		for _, a := range attach {
			n.Link(a, sw, leafClass, lp.GBps, lp.CableNS)
		}
		return []NodeID{sw}
	}
	// First level.
	nL1 := (len(attach) + spec.L1Down - 1) / spec.L1Down
	l1 := make([]NodeID, nL1)
	for i := range l1 {
		l1[i] = n.AddNode(Switch)
	}
	switches = append(switches, l1...)
	for i, a := range attach {
		n.Link(a, l1[i/spec.L1Down], leafClass, lp.GBps, lp.CableNS)
	}
	switches = append(switches, buildUpper(n, l1, spec.L1Up, spec.Radix, lp)...)
	return switches
}

// buildUpper builds the levels above prev, where each switch in prev
// contributes upPer uplinks. When prev fits the radix (every upper switch
// can reach every prev switch), a single top level is created with uplinks
// spread round-robin. Otherwise prev is partitioned into pods of radix/2
// switches with a nonblocking intermediate level per pod, and a core level
// connects the pods: core c serves the mid switches whose round-robin
// window contains c, and every pod covers every core window, so any two
// endpoints are 6 cables apart (the paper's 3-level diameter). This caps
// the construction at three switch levels, which covers radix³/4 ≈ 65k
// endpoints at radix 64 — beyond the paper's largest cluster.
func buildUpper(n *Network, prev []NodeID, upPer, radix int, lp LinkParams) []NodeID {
	if len(prev) <= 1 || upPer == 0 {
		return nil
	}
	spread := func(from []NodeID, per int) []NodeID {
		total := len(from) * per
		nTop := (total + radix - 1) / radix
		top := make([]NodeID, nTop)
		for i := range top {
			top[i] = n.AddNode(Switch)
		}
		for i, p := range from {
			for j := 0; j < per; j++ {
				n.Link(p, top[(i*per+j)%nTop], AoC, lp.GBps, lp.CableNS)
			}
		}
		return top
	}
	if len(prev) <= radix {
		return spread(prev, upPer)
	}
	// Pod-based intermediate level: radix/2 prev switches per pod, each pod
	// internally nonblocking.
	podSize := radix / 2
	var mids []NodeID
	for start := 0; start < len(prev); start += podSize {
		end := start + podSize
		if end > len(prev) {
			end = len(prev)
		}
		pod := prev[start:end]
		podUp := len(pod) * upPer
		nMid := (podUp + podSize - 1) / podSize
		mid := make([]NodeID, nMid)
		for i := range mid {
			mid[i] = n.AddNode(Switch)
		}
		for i, p := range pod {
			for j := 0; j < upPer; j++ {
				n.Link(p, mid[(i*upPer+j)%nMid], AoC, lp.GBps, lp.CableNS)
			}
		}
		mids = append(mids, mid...)
	}
	cores := spread(mids, podSize)
	out := make([]NodeID, 0, len(mids)+len(cores))
	out = append(out, mids...)
	out = append(out, cores...)
	return out
}

// NewFatTree builds a standalone fat-tree topology with the given number of
// endpoints, one plane. Endpoints attach with DAC cables; all inter-switch
// links are AoC.
func NewFatTree(endpoints int, spec TreeSpec, lp LinkParams) *Network {
	n := &Network{Name: fmt.Sprintf("fattree-%d", endpoints)}
	n.Meta = Meta{Family: "fattree", Planes: lp.NumPlanes, NumAccels: endpoints}
	eps := make([]NodeID, endpoints)
	for i := range eps {
		eps[i] = n.AddNode(Endpoint)
	}
	attachTree(n, eps, DAC, lp, spec)
	return n
}
