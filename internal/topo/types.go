// Package topo builds explicit graph representations of the network
// topologies studied in the HammingMesh paper (SC22): HammingMesh itself
// (HxMesh), fat trees (nonblocking and tapered), Dragonfly, 2D HyperX, and
// 2D torus.
//
// A Network is a flat list of nodes (endpoints and switches) connected by
// directed port pairs. Every physical cable is represented as two directed
// ports (one per direction) carrying a link class (PCB trace, DAC copper or
// AoC optical cable), a bandwidth and a latency. The builders deliberately
// mirror the constructions in Appendix C of the paper so that the cost
// model and the simulator operate on the same object.
package topo

import "fmt"

// NodeKind distinguishes accelerators (traffic sources/sinks) from switches.
type NodeKind uint8

const (
	// Endpoint is an accelerator NIC port set (one plane of one accelerator).
	Endpoint NodeKind = iota
	// Switch is a packet switch (including the 4x4 forwarding capability
	// inside an accelerator package, which the HxMesh builder models as the
	// endpoint node itself being allowed to forward).
	Switch
)

func (k NodeKind) String() string {
	switch k {
	case Endpoint:
		return "endpoint"
	case Switch:
		return "switch"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// LinkClass is the cable technology of a link; it determines cost.
type LinkClass uint8

const (
	// PCB is an on-board metal trace (free in the paper's cost model).
	PCB LinkClass = iota
	// DAC is a direct-attach copper cable (5 m, $272).
	DAC
	// AoC is an active optical cable (20 m, $603).
	AoC

	// NumLinkClasses is the number of link classes (for dense per-class
	// accounting arrays).
	NumLinkClasses = int(AoC) + 1
)

func (c LinkClass) String() string {
	switch c {
	case PCB:
		return "PCB"
	case DAC:
		return "DAC"
	case AoC:
		return "AoC"
	}
	return fmt.Sprintf("LinkClass(%d)", uint8(c))
}

// NodeID indexes into Network.Nodes.
type NodeID int32

// None is the invalid node id.
const None NodeID = -1

// Port is one direction of a cable attached to a node.
type Port struct {
	To      NodeID    // peer node
	ToPort  int32     // index of the reverse port on the peer
	Class   LinkClass // cable technology
	GBps    float64   // bandwidth in gigabytes per second (one direction)
	Latency float64   // propagation latency in nanoseconds
}

// Node is an endpoint or switch with its attached ports.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	Ports []Port
}

// Network is a built topology: a node list plus the endpoint index.
type Network struct {
	Name      string
	Nodes     []Node
	Endpoints []NodeID // endpoints in rank order

	// Meta records the construction parameters for reporting.
	Meta Meta
}

// Meta describes how a Network was constructed.
type Meta struct {
	Family    string // "hxmesh", "fattree", "dragonfly", "torus", "hyperx"
	Planes    int    // number of planes the physical system would have
	BoardA    int    // HxMesh board width (a), 0 if not applicable
	BoardB    int    // HxMesh board height (b)
	GlobalX   int    // HxMesh global width (x) / torus width
	GlobalY   int    // HxMesh global height (y) / torus height
	Taper     float64
	NumAccels int // total accelerators represented by the full system
}

// NumEndpoints returns the number of endpoints.
func (n *Network) NumEndpoints() int { return len(n.Endpoints) }

// NumSwitches returns the number of switch nodes in the built (single-plane)
// graph.
func (n *Network) NumSwitches() int {
	c := 0
	for i := range n.Nodes {
		if n.Nodes[i].Kind == Switch {
			c++
		}
	}
	return c
}

// AddNode appends a node and returns its id.
func (n *Network) AddNode(kind NodeKind) NodeID {
	id := NodeID(len(n.Nodes))
	n.Nodes = append(n.Nodes, Node{ID: id, Kind: kind})
	if kind == Endpoint {
		n.Endpoints = append(n.Endpoints, id)
	}
	return id
}

// Link connects a and b with a bidirectional cable of the given class,
// bandwidth and latency. It returns the port index on a.
func (n *Network) Link(a, b NodeID, class LinkClass, gbps, latencyNS float64) int {
	if a == b {
		panic("topo: self link")
	}
	pa := int32(len(n.Nodes[a].Ports))
	pb := int32(len(n.Nodes[b].Ports))
	n.Nodes[a].Ports = append(n.Nodes[a].Ports, Port{To: b, ToPort: pb, Class: class, GBps: gbps, Latency: latencyNS})
	n.Nodes[b].Ports = append(n.Nodes[b].Ports, Port{To: a, ToPort: pa, Class: class, GBps: gbps, Latency: latencyNS})
	return int(pa)
}

// CableCount returns the number of physical cables of each class in the
// built single-plane graph (each bidirectional link pair counts once).
func (n *Network) CableCount() map[LinkClass]int {
	out := map[LinkClass]int{}
	for i := range n.Nodes {
		for _, p := range n.Nodes[i].Ports {
			if NodeID(i) < p.To { // count each cable once
				out[p.Class]++
			}
		}
	}
	return out
}

// Validate checks structural invariants: port reciprocity, endpoint ids,
// no dangling references. It returns the first violation found.
func (n *Network) Validate() error {
	seen := make(map[NodeID]bool, len(n.Endpoints))
	for _, e := range n.Endpoints {
		if e < 0 || int(e) >= len(n.Nodes) {
			return fmt.Errorf("topo: endpoint id %d out of range", e)
		}
		if n.Nodes[e].Kind != Endpoint {
			return fmt.Errorf("topo: endpoint list contains switch %d", e)
		}
		if seen[e] {
			return fmt.Errorf("topo: duplicate endpoint %d", e)
		}
		seen[e] = true
	}
	nEndpoints := 0
	for i := range n.Nodes {
		node := &n.Nodes[i]
		if NodeID(i) != node.ID {
			return fmt.Errorf("topo: node %d has id %d", i, node.ID)
		}
		if node.Kind == Endpoint {
			nEndpoints++
		}
		for pi, p := range node.Ports {
			if p.To < 0 || int(p.To) >= len(n.Nodes) {
				return fmt.Errorf("topo: node %d port %d points to invalid node %d", i, pi, p.To)
			}
			peer := &n.Nodes[p.To]
			if int(p.ToPort) >= len(peer.Ports) {
				return fmt.Errorf("topo: node %d port %d reverse port %d out of range", i, pi, p.ToPort)
			}
			back := peer.Ports[p.ToPort]
			if back.To != NodeID(i) || int(back.ToPort) != pi {
				return fmt.Errorf("topo: node %d port %d not reciprocal", i, pi)
			}
			if back.Class != p.Class || back.GBps != p.GBps || back.Latency != p.Latency {
				return fmt.Errorf("topo: node %d port %d asymmetric link attributes", i, pi)
			}
		}
	}
	if nEndpoints != len(n.Endpoints) {
		return fmt.Errorf("topo: %d endpoint nodes but %d registered", nEndpoints, len(n.Endpoints))
	}
	return nil
}

// Degree returns the number of ports on node id.
func (n *Network) Degree(id NodeID) int { return len(n.Nodes[id].Ports) }

// LinkParams are the default physical parameters used across the paper's
// simulations (Appendix F): 400 Gb/s links (50 GB/s), 20 ns cable latency,
// 1 ns on-board trace latency.
type LinkParams struct {
	GBps      float64 // per-link bandwidth, one direction
	CableNS   float64 // DAC/AoC latency
	TraceNS   float64 // PCB latency
	SwitchNS  float64 // per-hop switch traversal latency (input+output buffer)
	PacketB   int     // packet size in bytes
	BufferB   int     // per-port input buffer in bytes (credit mode)
	NumPlanes int     // planes represented by a single built plane
}

// DefaultLinkParams mirrors Appendix F (Table III).
func DefaultLinkParams() LinkParams {
	return LinkParams{
		GBps:      50,   // 400 Gb/s
		CableNS:   20,   // link latency
		TraceNS:   1,    // on-board link latency
		SwitchNS:  80,   // in+out buffer latency (2x40 ns)
		PacketB:   8192, // packet size
		BufferB:   1 << 20,
		NumPlanes: 4,
	}
}
