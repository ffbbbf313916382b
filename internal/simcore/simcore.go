// Package simcore compiles a topo.Network into flat-array form shared by
// every simulator layer (routing, netsim, flowsim, collective). The builders
// in internal/topo favour readability — ports live in per-node slices and
// several consumers used to key auxiliary state by node or port id in Go
// maps, which dominates the hot loops of the packet simulator at scale.
//
// A Compiled network is built once per topology and is immutable afterwards:
//
//   - CSR adjacency: the directed ports of node u are
//     Ports[PortOff[u]:PortOff[u+1]], so a "global port id" (the CSR index)
//     doubles as the channel id of the link direction it represents.
//     Owner[pid] recovers the sending node of a port.
//   - Dense endpoint ranks: RankOf[node] is the endpoint rank (index into
//     Endpoints) or -1, replacing map[NodeID]… accounting.
//   - Parallel-link groups: ports that connect the same ordered node pair
//     (u,v) share a group id; GroupPorts[GroupOff[g]:GroupOff[g+1]] lists
//     them, replacing flowsim's map-of-slices round-robin state.
//
// Because mutable per-port and per-node simulator state is kept in slices
// indexed by these ids, a single Compiled value can back any number of
// concurrent simulations (see internal/runner).
package simcore

import (
	"math/bits"
	"sync"

	"hammingmesh/internal/topo"
)

// Port is one direction of a cable in compiled (CSR) form.
type Port struct {
	To      int32   // peer node index
	Rev     int32   // global port id of the reverse direction
	GBps    float64 // bandwidth, one direction
	Latency float64 // propagation latency in ns
}

// Compiled is the flat-array representation of a topo.Network. All fields
// are read-only after Compile returns; simulators allocate their own
// mutable state indexed by the node and port ids defined here.
type Compiled struct {
	Net *topo.Network

	// CSR adjacency: ports of node u are Ports[PortOff[u]:PortOff[u+1]].
	PortOff []int32
	Ports   []Port
	Owner   []int32 // global port id -> owning (sending) node

	// Node kinds, densely indexed by node id.
	Kind []topo.NodeKind

	// Endpoints in rank order (shared with Net.Endpoints) and the inverse
	// mapping; RankOf[node] is -1 for switches.
	Endpoints []topo.NodeID
	RankOf    []int32

	// Switches lists switch node ids in ascending order (used for Valiant
	// and UGAL intermediate sampling).
	Switches []topo.NodeID

	// Parallel-link groups: GroupOf[pid] is the group of ports connecting
	// the same ordered (owner, peer) pair; the group's members are
	// GroupPorts[GroupOff[g]:GroupOff[g+1]].
	GroupOf    []int32
	GroupOff   []int32
	GroupPorts []int32
}

// Compile flattens the network. The network must already satisfy
// (*topo.Network).Validate; Compile does not re-check invariants.
func Compile(n *topo.Network) *Compiled {
	nn := len(n.Nodes)
	c := &Compiled{
		Net:       n,
		PortOff:   make([]int32, nn+1),
		Kind:      make([]topo.NodeKind, nn),
		Endpoints: n.Endpoints,
		RankOf:    make([]int32, nn),
	}
	total := 0
	for i := range n.Nodes {
		c.PortOff[i] = int32(total)
		total += len(n.Nodes[i].Ports)
		c.Kind[i] = n.Nodes[i].Kind
		c.RankOf[i] = -1
		if n.Nodes[i].Kind == topo.Switch {
			c.Switches = append(c.Switches, topo.NodeID(i))
		}
	}
	c.PortOff[nn] = int32(total)
	for r, id := range n.Endpoints {
		c.RankOf[id] = int32(r)
	}

	c.Ports = make([]Port, total)
	c.Owner = make([]int32, total)
	for i := range n.Nodes {
		off := c.PortOff[i]
		for pi, p := range n.Nodes[i].Ports {
			c.Ports[off+int32(pi)] = Port{
				To:      int32(p.To),
				Rev:     c.PortOff[p.To] + p.ToPort,
				GBps:    p.GBps,
				Latency: p.Latency,
			}
			c.Owner[off+int32(pi)] = int32(i)
		}
	}

	c.compileGroups()
	return c
}

// compileGroups assigns every directed port to its parallel-link group.
// Within one node the ports are few, so grouping scans earlier siblings
// instead of hashing.
func (c *Compiled) compileGroups() {
	c.GroupOf = make([]int32, len(c.Ports))
	nGroups := int32(0)
	for u := 0; u+1 < len(c.PortOff); u++ {
		off, end := c.PortOff[u], c.PortOff[u+1]
		for p := off; p < end; p++ {
			g := int32(-1)
			for q := off; q < p; q++ {
				if c.Ports[q].To == c.Ports[p].To {
					g = c.GroupOf[q]
					break
				}
			}
			if g < 0 {
				g = nGroups
				nGroups++
			}
			c.GroupOf[p] = g
		}
	}
	counts := make([]int32, nGroups+1)
	for _, g := range c.GroupOf {
		counts[g+1]++
	}
	for g := 1; g <= int(nGroups); g++ {
		counts[g] += counts[g-1]
	}
	c.GroupOff = counts
	c.GroupPorts = make([]int32, len(c.Ports))
	cursor := make([]int32, nGroups)
	for pid, g := range c.GroupOf {
		c.GroupPorts[c.GroupOff[g]+cursor[g]] = int32(pid)
		cursor[g]++
	}
}

// NumNodes returns the number of nodes.
func (c *Compiled) NumNodes() int { return len(c.Kind) }

// NumPorts returns the number of directed ports (== channels).
func (c *Compiled) NumPorts() int { return len(c.Ports) }

// NumEndpoints returns the number of endpoints.
func (c *Compiled) NumEndpoints() int { return len(c.Endpoints) }

// PortRange returns the half-open global port id range of node u.
func (c *Compiled) PortRange(u int32) (int32, int32) {
	return c.PortOff[u], c.PortOff[u+1]
}

// PortsOf returns the ports of node u as a sub-slice of the CSR array.
func (c *Compiled) PortsOf(u int32) []Port {
	return c.Ports[c.PortOff[u]:c.PortOff[u+1]]
}

// PortID converts a node-local port index to the global port id.
func (c *Compiled) PortID(u int32, local int) int32 {
	return c.PortOff[u] + int32(local)
}

// IsSwitch reports whether node u is a switch.
func (c *Compiled) IsSwitch(u int32) bool { return c.Kind[u] == topo.Switch }

// GroupTo returns the parallel-link group id of the ports u->v, or -1 when
// no such link exists.
func (c *Compiled) GroupTo(u, v int32) int32 {
	for p := c.PortOff[u]; p < c.PortOff[u+1]; p++ {
		if c.Ports[p].To == v {
			return c.GroupOf[p]
		}
	}
	return -1
}

// GroupMembers returns the global port ids of parallel-link group g.
func (c *Compiled) GroupMembers(g int32) []int32 {
	return c.GroupPorts[c.GroupOff[g]:c.GroupOff[g+1]]
}

// BFSFrom returns the hop distance of every node from src over the CSR
// adjacency, or -1 where unreachable. Semantics match topo.BFSFrom.
func (c *Compiled) BFSFrom(src topo.NodeID) []int32 {
	dist := make([]int32, c.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, c.NumNodes())
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for p := c.PortOff[u]; p < c.PortOff[u+1]; p++ {
			v := c.Ports[p].To
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// PortMask is a bitset over global port ids marking ports that are down
// (failed link direction, failed switch port, failed endpoint). A nil mask
// means the pristine fabric. Masks are built by internal/faults and treated
// as immutable overlays: one Compiled network plus one PortMask fully
// describe a degraded fabric, and every downstream layer (routing, netsim,
// flowsim) shares that representation.
type PortMask []uint64

// NewPortMask returns an empty mask sized for nPorts ports.
func NewPortMask(nPorts int) PortMask { return make(PortMask, (nPorts+63)/64) }

// Get reports whether port pid is masked (down). A nil mask masks nothing.
func (m PortMask) Get(pid int32) bool {
	if m == nil {
		return false
	}
	return m[pid>>6]&(1<<(uint(pid)&63)) != 0
}

// Set marks port pid as down.
func (m PortMask) Set(pid int32) { m[pid>>6] |= 1 << (uint(pid) & 63) }

// Clear unmarks port pid.
func (m PortMask) Clear(pid int32) { m[pid>>6] &^= 1 << (uint(pid) & 63) }

// Count returns the number of masked ports.
func (m PortMask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of the mask (nil stays nil).
func (m PortMask) Clone() PortMask {
	if m == nil {
		return nil
	}
	out := make(PortMask, len(m))
	copy(out, m)
	return out
}

// BFSFromMask is BFSFrom over the degraded fabric: masked ports do not
// exist. Distances follow the packet direction toward src, so the traversal
// from src over port p (src side u -> peer v) admits v only when the
// reverse direction v -> u is up; faults that kill a single direction
// therefore degrade exactly the routes that would use it. A nil mask
// matches BFSFrom.
func (c *Compiled) BFSFromMask(src topo.NodeID, mask PortMask) []int32 {
	if mask == nil {
		return c.BFSFrom(src)
	}
	dist := make([]int32, c.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, c.NumNodes())
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for p := c.PortOff[u]; p < c.PortOff[u+1]; p++ {
			if mask.Get(c.Ports[p].Rev) {
				continue
			}
			v := c.Ports[p].To
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFSBatch is the most sources BFSBatchMask serves in one walk: one bit
// of a uint64 per source.
const BFSBatch = 64

// BFSBatchMask returns the distance vectors of up to BFSBatch sources,
// out[i] equal to BFSFromMask(srcs[i], mask), from a single bit-parallel
// walk of the fabric (the multi-source BFS of Then et al., "The More the
// Merrier", PVLDB 8(4), 2014). Every node carries one uint64 of sources
// that have reached it, bit i for srcs[i]; each level ORs the frontier
// bits of a node into its neighbours over the same live ports
// BFSFromMask crosses, so one pass over the adjacency advances all
// sources a hop. The vectors share one allocation.
func (c *Compiled) BFSBatchMask(srcs []topo.NodeID, mask PortMask) [][]int32 {
	if len(srcs) > BFSBatch {
		panic("simcore: BFSBatchMask takes at most 64 sources")
	}
	n := c.NumNodes()
	all := make([]int32, len(srcs)*n)
	for i := range all {
		all[i] = -1
	}
	out := make([][]int32, len(srcs))
	words := make([]uint64, 3*n)
	seen, frontier, next := words[:n], words[n:2*n], words[2*n:]
	for i, src := range srcs {
		out[i] = all[i*n : (i+1)*n : (i+1)*n]
		out[i][src] = 0
		seen[src] |= 1 << i
		frontier[src] |= 1 << i
	}
	for level := int32(1); ; level++ {
		for u, f := range frontier {
			if f == 0 {
				continue
			}
			for p := c.PortOff[u]; p < c.PortOff[u+1]; p++ {
				if mask != nil && mask.Get(c.Ports[p].Rev) {
					continue
				}
				next[c.Ports[p].To] |= f
			}
		}
		grew := false
		for v, w := range next {
			w &^= seen[v]
			next[v] = 0
			frontier[v] = w
			if w == 0 {
				continue
			}
			grew = true
			seen[v] |= w
			for ; w != 0; w &= w - 1 {
				out[bits.TrailingZeros64(w)][v] = level
			}
		}
		if !grew {
			return out
		}
	}
}

// cache maps *topo.Network to its Compiled form so that the many call sites
// that build simulators straight from a Network share one compilation.
var cache sync.Map // *topo.Network -> *Compiled

// Of returns the cached compilation of n, compiling on first use. The
// network must not be mutated after the first call. Entries live for the
// process lifetime (an interning cache, like the cluster cache in
// internal/runner); code that churns through many throwaway networks
// should call Compile directly instead of pinning them here.
func Of(n *topo.Network) *Compiled {
	if v, ok := cache.Load(n); ok {
		return v.(*Compiled)
	}
	c := Compile(n)
	v, _ := cache.LoadOrStore(n, c)
	return v.(*Compiled)
}
