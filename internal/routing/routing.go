// Package routing computes minimal adaptive routes on the topologies built
// by internal/topo. For every destination it derives the hop-distance
// vector by breadth-first search; at each node the candidate next hops are
// the ports whose peer is one hop closer to the destination. The simulator
// picks among candidates adaptively (least-loaded output), which yields the
// paper's routing behaviour on every topology:
//
//   - fat trees: up/down routing emerges from shortest paths,
//   - HxMesh: on-board torus adaptivity, closest-edge exit, intermediate
//     boards for cross-row-cross-column traffic (§IV-C),
//   - torus: dimension-adaptive minimal routing,
//   - Dragonfly: minimal (direct) routing, with an optional Valiant detour
//     for non-minimal load balancing.
//
// Deadlock freedom in the credit-based simulator uses the paper's virtual
// channel policy (§IV-C3): the VC is incremented every time a packet leaves
// a board and enters a dimension network, requiring at most three VCs.
//
// Tables operate on the compiled flat-array network (internal/simcore).
// The distance vectors are the only cache, held in a dense per-destination
// slice; AppendCandidates scans a node's ports against one of them, so the
// packet engine, UGAL and the flow solver's path sampler share one
// candidate rule. A vector is built one of two ways, with identical
// results. Dist builds a missing one lazily, by a single-source BFS,
// since one destination is all it is given. Precompute and
// PrecomputeParallel warm a list of destinations ahead of use, 64 per
// walk of the bit-parallel BFS (simcore.BFSBatchMask); the runner's flow
// estimator and every packet run (netsim.Sim.Reset) warm this way. Either
// way a table caches only vectors somebody asked for. A Table is safe for
// concurrent use — vectors are published through atomic pointers, which
// lets the experiment runner share one table across parallel
// simulations.
//
// Degraded fabrics (internal/faults) are first-class: NewTableMask builds a
// table over a port-mask overlay, computing distance vectors and candidates
// as if masked ports did not exist, and path sampling toward an
// unreachable destination returns a typed *ErrUnreachable instead of
// silently indexing a -1 distance.
package routing

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// ErrUnreachable reports that no route exists between two nodes on the
// (possibly degraded) fabric. Callers match it with errors.As.
type ErrUnreachable struct {
	From, To topo.NodeID
}

func (e *ErrUnreachable) Error() string {
	return fmt.Sprintf("routing: node %d unreachable from node %d", e.To, e.From)
}

// MaxVCs is the number of virtual channels required by the HxMesh VC
// escalation policy (§IV-C3): a packet crosses at most two fat trees.
const MaxVCs = 3

// Table holds per-destination distance vectors, computed on demand (see
// the package doc) and cached in a dense slice indexed by destination
// node id. Construction is lock-free: workers that race on the same cold
// destination each compute the vector and the first CompareAndSwap wins
// (duplicate work is bounded and rare), so distinct destinations build
// concurrently during parallel sweeps.
type Table struct {
	C *simcore.Compiled

	// mask is the port-mask overlay of a degraded fabric (nil = pristine).
	// Distance vectors and candidates are computed as if masked ports did
	// not exist, so every consumer of the table routes around faults.
	mask simcore.PortMask

	dist []atomic.Pointer[[]int32]
}

// NewTable creates a routing table over a compiled network.
func NewTable(c *simcore.Compiled) *Table { return NewTableMask(c, nil) }

// NewTableMask creates a routing table over a degraded fabric: ports set in
// the mask do not exist for route computation. A nil mask is the pristine
// fabric. The mask must not change after the table is created (a new fault
// scenario is a new table).
func NewTableMask(c *simcore.Compiled, mask simcore.PortMask) *Table {
	return &Table{
		C:    c,
		mask: mask,
		dist: make([]atomic.Pointer[[]int32], c.NumNodes()),
	}
}

// NewTableNet is a convenience constructor from a raw network (compiled via
// the simcore cache).
func NewTableNet(n *topo.Network) *Table { return NewTable(simcore.Of(n)) }

// Mask returns the table's port-mask overlay (nil when pristine). Shared,
// read-only.
func (t *Table) Mask() simcore.PortMask { return t.mask }

// Dist returns the hop-distance vector toward dst (computing it on first
// use). dist[v] is the number of links from v to dst, or -1 when dst is
// unreachable from v on the (possibly degraded) fabric.
func (t *Table) Dist(dst topo.NodeID) []int32 {
	if p := t.dist[dst].Load(); p != nil {
		return *p
	}
	d := t.C.BFSFromMask(dst, t.mask)
	if t.dist[dst].CompareAndSwap(nil, &d) {
		return d
	}
	return *t.dist[dst].Load()
}

// Reachable reports whether dst is reachable from src.
func (t *Table) Reachable(src, dst topo.NodeID) bool {
	return src == dst || t.Dist(dst)[src] >= 0
}

// AppendCandidates appends to buf the global port ids (channel ids) of the
// minimal candidate outputs of node `at` toward dst and returns the
// extended slice: the unmasked ports whose peer is one hop closer to dst,
// in port order (§IV-C). Masked ports are never candidates, even when
// their peer is at the right distance through a live port. Nothing is
// appended when at == dst or dst is unreachable from at. Hot loops pass
// buf[:0] of a [64]int32 stack array, so the scan allocates only at nodes
// with more candidates than that.
func (t *Table) AppendCandidates(buf []int32, at int32, dst topo.NodeID) []int32 {
	d := t.Dist(dst)
	if d[at] <= 0 {
		return buf
	}
	want := d[at] - 1
	off, end := t.C.PortRange(at)
	for i, p := range t.C.Ports[off:end] {
		if d[p.To] == want && !t.mask.Get(off+int32(i)) {
			buf = append(buf, off+int32(i))
		}
	}
	return buf
}

// MemoryBytes approximates the memory retained by the table's cache: four
// bytes per entry of every cached distance vector. The value grows as the
// table warms, so callers that budget table memory (runner.Pool's cluster
// cache) should re-estimate rather than snapshot. Safe for concurrent use.
func (t *Table) MemoryBytes() int64 {
	built := 0
	for i := range t.dist {
		if t.dist[i].Load() != nil {
			built++
		}
	}
	return 4 * int64(built) * int64(t.C.NumNodes())
}

// Precompute fills the cache for the given destinations ahead of use:
// before timing-sensitive simulation loops, or before runner workers
// share the table. Cold destinations are warmed in chunks of
// simcore.BFSBatch, each chunk by one bit-parallel BFS
// (simcore.BFSBatchMask) instead of one BFS per destination. Warm
// destinations and repeats are skipped, so the table caches exactly the
// vectors asked for, and a call whose destinations are all warm
// allocates nothing.
func (t *Table) Precompute(dsts []topo.NodeID) {
	var chunk [simcore.BFSBatch]topo.NodeID
	n := 0
	for _, d := range dsts {
		if t.dist[d].Load() != nil || slices.Contains(chunk[:n], d) {
			continue
		}
		chunk[n] = d
		n++
		if n == len(chunk) {
			t.warm(chunk[:n])
			n = 0
		}
	}
	if n > 0 {
		t.warm(chunk[:n])
	}
}

// PrecomputeParallel is Precompute fanned over the given number of
// goroutines, each warming one chunk of simcore.BFSBatch listed
// destinations at a time. Chunks build lock-free (distinct destinations
// never contend), so warming scales with cores; on the 16k-endpoint
// clusters the serial warm-up dominates the first flow-level solve.
// Pre-warming also avoids the bounded-but-wasteful duplicate builds that
// racing cold sweep jobs would otherwise perform.
func (t *Table) PrecomputeParallel(dsts []topo.NodeID, workers int) {
	chunks := (len(dsts) + simcore.BFSBatch - 1) / simcore.BFSBatch
	workers = max(1, min(workers, chunks))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(simcore.BFSBatch)) - simcore.BFSBatch
				if lo >= len(dsts) {
					return
				}
				t.Precompute(dsts[lo:min(lo+simcore.BFSBatch, len(dsts))])
			}
		}()
	}
	wg.Wait()
}

// warm builds the vectors of up to simcore.BFSBatch destinations in one
// batched BFS and publishes each, unless a lazy Dist racing it has
// already published that destination's.
func (t *Table) warm(dsts []topo.NodeID) {
	for i, d := range t.C.BFSBatchMask(dsts, t.mask) {
		t.dist[dsts[i]].CompareAndSwap(nil, &d)
	}
}

// PathLen returns the shortest path length in links between two nodes, or
// -1 when b is unreachable from a.
func (t *Table) PathLen(a, b topo.NodeID) int { return int(t.Dist(b)[a]) }

// AppendSamplePathPorts appends to buf one shortest path from src to dst
// (as node ids, inclusive of both ends), selected deterministically by the
// seed among the candidates at every hop, and appends the global port id
// chosen at every hop into portBuf (skipped when portBuf is nil). The
// flow-level solver uses it to enumerate path diversity: it reuses buf[:0]
// and portBuf[:0] across samples, and maps each chosen port to its
// parallel-link group without re-scanning the adjacency. When no route
// exists it returns a typed *ErrUnreachable; buf may then hold a partial
// walk, and only the returned slices are meaningful.
func (t *Table) AppendSamplePathPorts(buf []topo.NodeID, portBuf []int32, src, dst topo.NodeID, seed uint64) ([]topo.NodeID, []int32, error) {
	if t.Dist(dst)[src] < 0 {
		return nil, portBuf, &ErrUnreachable{From: src, To: dst}
	}
	path := append(buf, src)
	at := int32(src)
	rng := seed
	var cbuf [64]int32
	cands := cbuf[:0]
	for at != int32(dst) {
		cands = t.AppendCandidates(cands[:0], at, dst)
		if len(cands) == 0 {
			// Unreachable mid-walk cannot happen when the distance vector
			// and the mask agree; guard anyway so a future inconsistency
			// surfaces as an error, not a modulo-by-zero panic.
			return nil, portBuf, &ErrUnreachable{From: topo.NodeID(at), To: dst}
		}
		rng = rng*6364136223846793005 + 1442695040888963407
		chosen := cands[int(rng>>33)%len(cands)]
		at = t.C.Ports[chosen].To
		path = append(path, topo.NodeID(at))
		if portBuf != nil {
			portBuf = append(portBuf, chosen)
		}
	}
	return path, portBuf, nil
}

// VCPolicy decides the virtual channel of a packet after it traverses a
// hop. The HxMesh policy (§IV-C3) increments the VC whenever the packet
// jumps from a board into a dimension network (an endpoint-to-switch hop),
// so board-internal north-last routing and in-tree up/down routing each
// stay within one VC and at most three VCs are used.
func VCPolicy(c *simcore.Compiled, from, to int32, vc int8) int8 {
	if c.Kind[from] == topo.Endpoint && c.Kind[to] == topo.Switch {
		if vc < MaxVCs-1 {
			return vc + 1
		}
		return vc
	}
	return vc
}
