// Package faults injects failures into a compiled network. The paper's
// headline resilience claim (§III-E, Fig. 10) is that HammingMesh degrades
// gracefully: the board/row/column structure routes around failed links,
// switches and whole boards with modest bandwidth loss. This package gives
// every simulator layer one shared representation of a degraded fabric:
//
//   - A FaultSet is an immutable description of what failed — individual
//     cables, single port directions, switches, endpoints, or whole boards
//     (identified by HxMesh board coordinates).
//   - Applied to a simcore.Compiled it yields a simcore.PortMask overlay:
//     masked ports do not exist for routing (masked BFS and candidates),
//     are refused by netsim, and are skipped by flowsim's parallel-link
//     round-robin. The Compiled network itself is never mutated, so any
//     number of FaultSets can share one compilation.
//
// Fault sets come from explicit specs (Builder) or from seeded samplers.
// Sampling is deterministic: the same (network, fraction, seed) triple
// always fails the same elements, and the sampled sequence is *nested* —
// a higher failure fraction under the same seed is a superset of a lower
// one — so resilience sweeps measure monotone degradation rather than
// sampling noise.
package faults

import (
	"fmt"

	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// FaultSet is an immutable set of failed fabric elements over one compiled
// network. The zero-value-like set returned by NewBuilder(...).Build() with
// no failures masks nothing and is reported as pristine by Zero.
type FaultSet struct {
	mask simcore.PortMask // masked (down) port directions
	down []bool           // down nodes (all ports masked), indexed by node id

	links    int // failed cables (both directions)
	switches int // failed switch nodes
	boards   [][2]int
	alive    []topo.NodeID // surviving endpoints, rank order
}

// Mask returns the port-mask overlay (nil when the set is empty). The mask
// is shared, not copied; callers must treat it as read-only.
func (f *FaultSet) Mask() simcore.PortMask {
	if f.Zero() {
		return nil
	}
	return f.mask
}

// Zero reports whether the set contains no failures: a zero FaultSet must
// behave exactly like the pristine fabric (the golden-output invariant).
func (f *FaultSet) Zero() bool { return f.mask.Count() == 0 }

// NodeDown reports whether node id failed entirely.
func (f *FaultSet) NodeDown(id topo.NodeID) bool { return f.down[id] }

// FailedLinks returns the number of failed cables (a cable counts once even
// though both directions are masked).
func (f *FaultSet) FailedLinks() int { return f.links }

// FailedSwitches returns the number of failed switch nodes.
func (f *FaultSet) FailedSwitches() int { return f.switches }

// FailedBoards returns the failed board coordinates (HxMesh only).
func (f *FaultSet) FailedBoards() [][2]int { return f.boards }

// SurvivingEndpoints returns the endpoints whose node did not fail, in rank
// order. The slice is shared and must not be mutated.
func (f *FaultSet) SurvivingEndpoints() []topo.NodeID { return f.alive }

// String summarizes the set for logs and CLI output.
func (f *FaultSet) String() string {
	return fmt.Sprintf("faults{links=%d switches=%d boards=%d maskedPorts=%d}",
		f.links, f.switches, len(f.boards), f.mask.Count())
}

// Builder accumulates failures and produces an immutable FaultSet. Builders
// are cheap; one per scenario. Not safe for concurrent use.
type Builder struct {
	c    *simcore.Compiled
	mask simcore.PortMask
	down []bool

	links    int
	switches int
	boards   [][2]int
}

// NewBuilder starts an empty fault specification over c.
func NewBuilder(c *simcore.Compiled) *Builder {
	return &Builder{
		c:    c,
		mask: simcore.NewPortMask(c.NumPorts()),
		down: make([]bool, c.NumNodes()),
	}
}

// FailPortDir masks a single port direction (e.g. a flaky transmitter).
// The reverse direction stays up.
func (b *Builder) FailPortDir(pid int32) *Builder {
	b.mask.Set(pid)
	return b
}

// FailLink fails the cable containing port pid: both directions are masked.
// Failing an already-failed cable is a no-op.
func (b *Builder) FailLink(pid int32) *Builder {
	rev := b.c.Ports[pid].Rev
	if b.mask.Get(pid) && b.mask.Get(rev) {
		return b
	}
	b.mask.Set(pid)
	b.mask.Set(rev)
	b.links++
	return b
}

// FailNode fails a whole node: every attached cable is masked in both
// directions. Failing a switch models a dead packet switch; failing an
// endpoint models a dead accelerator (its traffic must be excluded by the
// caller — see FaultSet.SurvivingEndpoints).
func (b *Builder) FailNode(id topo.NodeID) *Builder {
	if b.down[id] {
		return b
	}
	b.down[id] = true
	if b.c.IsSwitch(int32(id)) {
		b.switches++
	}
	off, end := b.c.PortRange(int32(id))
	for pid := off; pid < end; pid++ {
		b.FailLink(pid)
	}
	return b
}

// FailBoard fails every accelerator on HxMesh board (bx, by): the whole
// board is powered off, as in the paper's board-replacement scenario
// (§III-E). The caller passes the HxMesh the compiled network was built
// from; the board's endpoints and all their links go down.
func (b *Builder) FailBoard(h *topo.HxMesh, bx, by int) *Builder {
	for _, id := range h.BoardAccels(bx, by) {
		b.FailNode(id)
	}
	b.boards = append(b.boards, [2]int{bx, by})
	return b
}

// FailBoardRegion fails every board of the w×ht region anchored at board
// (bx, by) — the correlated rack/row outage of the scheduler's burst model:
// a power or cooling event takes out a contiguous block of boards at once
// instead of independent singles. The region is clipped at the mesh edges
// (racks are physical; outages do not wrap), so anchors near the boundary
// produce smaller bursts. Boards already failed are failed again
// idempotently (FailNode dedupes ports).
func (b *Builder) FailBoardRegion(h *topo.HxMesh, bx, by, w, ht int) *Builder {
	for dy := 0; dy < ht; dy++ {
		for dx := 0; dx < w; dx++ {
			x, y := bx+dx, by+dy
			if x < 0 || y < 0 || x >= h.Cfg.X || y >= h.Cfg.Y {
				continue
			}
			b.FailBoard(h, x, y)
		}
	}
	return b
}

// Build freezes the accumulated failures into an immutable FaultSet.
func (b *Builder) Build() *FaultSet {
	f := &FaultSet{
		mask:     b.mask.Clone(),
		down:     append([]bool(nil), b.down...),
		links:    b.links,
		switches: b.switches,
		boards:   append([][2]int(nil), b.boards...),
	}
	f.alive = make([]topo.NodeID, 0, len(b.c.Endpoints))
	for _, e := range b.c.Endpoints {
		if !f.down[e] {
			f.alive = append(f.alive, e)
		}
	}
	return f
}

// splitmix64 decorrelates seeds (same finalizer as internal/runner).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a tiny deterministic generator for the samplers (no math/rand so
// sampling stays stable across Go releases).
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return splitmix64(uint64(*r))
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes s in place by Fisher-Yates under r.
func shuffle[T any](s []T, r rng) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// CableIDs returns one port id per physical cable (the direction with the
// smaller global port id), in ascending order — the sampling universe for
// link failures.
func CableIDs(c *simcore.Compiled) []int32 {
	out := make([]int32, 0, c.NumPorts()/2)
	for pid := int32(0); pid < int32(c.NumPorts()); pid++ {
		if pid < c.Ports[pid].Rev {
			out = append(out, pid)
		}
	}
	return out
}

// shuffledCables returns the cable universe in the seed's permutation
// order: the nested-failure sequence that all fraction-based samplers
// share.
func shuffledCables(c *simcore.Compiled, seed int64) []int32 {
	cables := CableIDs(c)
	shuffle(cables, rng(splitmix64(uint64(seed))))
	return cables
}

// LinkCount returns how many cables a fraction maps to (rounded to
// nearest), so sweeps can report absolute failure counts.
func LinkCount(c *simcore.Compiled, frac float64) int {
	n := int(frac*float64(len(CableIDs(c))) + 0.5)
	if n < 0 {
		n = 0
	}
	return n
}

// SampleLinksConnected fails up to a fraction of the cables while keeping
// every surviving endpoint pair connected: candidates from the seed's
// nested sequence that would disconnect the endpoint set are skipped (the
// operator replaces exactly the cables whose loss would partition the
// fabric — the degraded-but-operational regime the resilience sweeps
// measure). Deterministic in (c, frac, seed), and still nested: lower
// fractions take prefixes of the same accepted sequence.
func SampleLinksConnected(c *simcore.Compiled, frac float64, seed int64) *FaultSet {
	return NewBuilder(c).SampleConnectedLinks(frac, seed).Build()
}

// SampleConnectedLinks adds seeded link failures on top of the failures
// already in the builder (e.g. dead boards), failing up to frac of all
// cables while keeping the builder's surviving endpoints mutually
// connected. Cables already down (including those of failed nodes) are
// skipped without consuming the budget; the accepted sequence is nested in
// frac for a fixed seed and prior failures.
func (b *Builder) SampleConnectedLinks(frac float64, seed int64) *Builder {
	b.AcceptedConnectedLinks(frac, seed)
	return b
}

// AcceptedConnectedLinks is SampleConnectedLinks returning the accepted
// cable ids in acceptance order. Because acceptance is validated
// incrementally, *every prefix* of the returned sequence is itself a
// connectivity-preserving fault set on top of the builder's prior
// failures — resilience sweeps validate the sequence once at the highest
// fraction and replay prefixes for the lower ones instead of re-running
// the per-cable BFS per point.
func (b *Builder) AcceptedConnectedLinks(frac float64, seed int64) []int32 {
	want := LinkCount(b.c, frac)
	accepted := make([]int32, 0, want)
	for _, pid := range shuffledCables(b.c, seed) {
		if len(accepted) == want {
			break
		}
		rev := b.c.Ports[pid].Rev
		if b.mask.Get(pid) && b.mask.Get(rev) {
			continue
		}
		b.mask.Set(pid)
		b.mask.Set(rev)
		if b.connected() {
			b.links++
			accepted = append(accepted, pid)
		} else {
			b.mask.Clear(pid)
			b.mask.Clear(rev)
		}
	}
	return accepted
}

// SampleBoards fails n distinct boards of the HxMesh chosen by the seed.
func SampleBoards(h *topo.HxMesh, c *simcore.Compiled, n int, seed int64) *FaultSet {
	return NewBuilder(c).SampleFailedBoards(h, n, seed).Build()
}

// SampleFailedBoards fails n distinct seeded boards: the first n of the
// seed's BoardSalt order (nested in n for a fixed seed, like the link
// samplers).
func (b *Builder) SampleFailedBoards(h *topo.HxMesh, n int, seed int64) *Builder {
	order := BoardOrder(h.Cfg.X, h.Cfg.Y, seed, BoardSalt)
	for _, bd := range order[:min(n, len(order))] {
		b.FailBoard(h, bd[0], bd[1])
	}
	return b
}

// BoardSalt selects the board order SampleFailedBoards powers off a prefix
// of (the scheduler's board-failure process cycles through the same one).
const BoardSalt = 0xb0a2d5

// BoardOrder returns every board of an x×y grid, as (bx, by), in a seeded
// Fisher-Yates order drawn from the samplers' generator seeded with
// seed^salt: distinct salts give independent orders under one seed, and
// every prefix is a nested board sample.
func BoardOrder(x, y int, seed int64, salt uint64) [][2]int {
	out := make([][2]int, 0, x*y)
	for by := 0; by < y; by++ {
		for bx := 0; bx < x; bx++ {
			out = append(out, [2]int{bx, by})
		}
	}
	shuffle(out, rng(splitmix64(uint64(seed)^salt)))
	return out
}

// connected reports whether every endpoint not already failed outright is
// reachable from every other over the builder's mask. Link failures must
// never isolate a live accelerator (an isolated endpoint is a
// disconnection, not degradation); with the symmetric masks the builders
// produce, one BFS from any live endpoint decides all pairs.
func (b *Builder) connected() bool {
	var src topo.NodeID = topo.None
	for _, e := range b.c.Endpoints {
		if !b.down[e] {
			src = e
			break
		}
	}
	if src == topo.None {
		return true
	}
	dist := b.c.BFSFromMask(src, b.mask)
	for _, e := range b.c.Endpoints {
		if !b.down[e] && dist[e] < 0 {
			return false
		}
	}
	return true
}
