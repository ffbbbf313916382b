package topo

// BFSFrom returns, for every node, the minimum number of cables (hops) from
// src, or -1 if unreachable. The endpoint attachment cable counts as one
// hop, matching the paper's cable-counting diameter convention (§III-B).
func BFSFrom(n *Network, src NodeID) []int32 {
	dist := make([]int32, len(n.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, len(n.Nodes))
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, p := range n.Nodes[u].Ports {
			if dist[p.To] < 0 {
				dist[p.To] = du + 1
				queue = append(queue, p.To)
			}
		}
	}
	return dist
}

// Connected reports whether every node is reachable from node 0.
func Connected(n *Network) bool {
	if len(n.Nodes) == 0 {
		return true
	}
	for _, d := range BFSFrom(n, 0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// EndpointDiameter returns the maximum cable count between any pair of
// endpoints, computed exactly by BFS from every endpoint. For graphs with
// more than maxExact endpoints, it BFSes from a deterministic stride sample
// of sources instead (which still lower-bounds the true diameter and is
// exact for the vertex-transitive topologies built here).
func EndpointDiameter(n *Network, maxExact int) int {
	srcs := n.Endpoints
	if len(srcs) > maxExact && maxExact > 0 {
		stride := (len(srcs) + maxExact - 1) / maxExact
		sample := make([]NodeID, 0, maxExact)
		for i := 0; i < len(srcs); i += stride {
			sample = append(sample, srcs[i])
		}
		srcs = sample
	}
	max := 0
	isEndpoint := make([]bool, len(n.Nodes))
	for _, e := range n.Endpoints {
		isEndpoint[e] = true
	}
	for _, s := range srcs {
		dist := BFSFrom(n, s)
		for i, d := range dist {
			if isEndpoint[i] && int(d) > max {
				max = int(d)
			}
		}
	}
	return max
}

// CutWidth counts the cables crossing a node partition. part[i] must be
// true for nodes on one side. Endpoint-to-switch cables count like any
// other cable.
func CutWidth(n *Network, part []bool) int {
	cut := 0
	for i := range n.Nodes {
		for _, p := range n.Nodes[i].Ports {
			if NodeID(i) < p.To && part[i] != part[p.To] {
				cut++
			}
		}
	}
	return cut
}

// HxMeshBisection computes the link cut obtained by splitting an HxMesh
// between board rows y/2-1 and y/2 (the construction in §III-A): every
// column network keeps connecting both halves, so the cut counts, per
// column line, the links from the lower half's north/south attachment
// ports that must carry cross-half traffic. The closed form from the paper
// is a·x·y/2 links per direction pair for a square board; this helper
// instead counts on the real graph by marking the lower half's endpoints
// and the switches whose attached endpoints are all in one half.
func HxMeshBisection(h *HxMesh) int {
	gh := h.Cfg.Y * h.Cfg.B
	part := make([]bool, len(h.Nodes))
	half := gh / 2
	for gy := 0; gy < gh; gy++ {
		for gx := 0; gx < h.Cfg.X*h.Cfg.A; gx++ {
			part[h.AccelAt[gy][gx]] = gy < half
		}
	}
	// Row switches sit entirely within a half; column switches are placed
	// on the upper side (they serve both halves, so all lower-half
	// attachment links cross the cut, matching the paper's accounting).
	for by, sws := range h.RowSwitches {
		inLower := (by*h.Cfg.B + h.Cfg.B - 1) < half
		for _, sw := range sws {
			part[sw] = inLower
		}
	}
	return CutWidth(h.Network, part)
}
