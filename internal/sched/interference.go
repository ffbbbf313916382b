package sched

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/flowsim"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// JobTraffic is one running (or hypothetical) job's contribution to the
// cluster's combined traffic matrix: its placement and the fraction of its
// time spent communicating.
type JobTraffic struct {
	Placement *alloc.Placement
	CommFrac  float64
}

// Interference prices cross-job contention on the shared upper-layer
// fat-trees. Each job's alltoall traffic is decomposed per the HxMesh
// dimension-ordered route — the row network at the source row, then the
// column network at the destination column — into weighted demands on a
// reduced contention network (one star-shaped tree per physical row and
// column, with only the tapered group uplinks capacity-constrained), and
// all jobs are priced jointly with the flow solver's weighted max-min
// fill (flowsim.TenantShares). The resulting contention factor for job j,
//
//	γ_j = soloShare_j / jointShare_j ≥ 1,
//
// is 1 exactly when j's upper-layer traffic is unaffected by the other
// jobs (self-congestion divides out: it is already priced by
// CommSlowdown's shape and spread terms), and grows as contenders steal
// tapered uplink bandwidth.
//
// Results are memoized by a canonical fingerprint of the placement set
// (grid dims + sorted per-job signatures, job identity excluded), so
// repeated pricing of the same contention set — including across sweep
// trials and workers — is deterministic and cheap. All methods are safe
// for concurrent use; one Interference is shared across a sweep.
//
// The mutex covers only the joint and solo-share memos, the contention-net
// registry and the counters: lookups and stores. Joint and solo flow
// solves run outside it, each on a solver (with its demand buffers) taken
// from the grid's contention-net pool, so the sweep's workers price
// concurrently. Pooled solvers are interchangeable: the contention net has
// exactly one path between any two endpoints, each demand carries that
// path's port ids (appendPath), and TenantShares keeps no state between
// calls that could reach a result, so every solver returns the same bits
// for the same demands. Two workers missing on the same key at once may
// both solve it, which only shifts the Solves/MemoHits counters.
type Interference struct {
	// BoardA, BoardB are accelerators per board dimension (zeros mean 2×2).
	BoardA, BoardB int
	// GroupBoards is the L1 fat-tree group width (zero means 16, matching
	// alloc and CommSlowdown). Grids no wider than one group have no
	// shared upper layer and every γ is 1.
	GroupBoards int
	// Taper scales the group uplink capacity (zero means 1 = full
	// bandwidth; the paper's economical builds taper 2:1..3:1, i.e. 0.5
	// or 0.33).
	Taper float64
	// MemoCap bounds the joint-pricing memo (zero means 4096); when full
	// the memo is cleared whole, keeping behaviour deterministic.
	MemoCap int

	mu    sync.Mutex
	nets  map[[2]int]*contentionNet
	memo  map[string][]float64 // joint shares, sorted-signature order
	stats InterferenceStats
}

// InterferenceStats counts memo effectiveness for the bench harness.
type InterferenceStats struct {
	Solves   int64 // joint pricings computed by the flow solver
	MemoHits int64 // joint pricings answered from the memo
}

// Stats returns cumulative counters.
func (in *Interference) Stats() InterferenceStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// contentionNet is the reduced upper-layer network of one grid size: Y row
// trees and X column trees, disjoint, each a two-level star whose only
// constrained links are the tapered group uplinks. Its network fields are
// immutable once built, solvers come from the pool, and the solo-share
// memo is guarded by the owning Interference's mutex.
type contentionNet struct {
	comp   *simcore.Compiled
	rowEp  [][]topo.NodeID    // [row][col] endpoint in row tree `row`
	colEp  [][]topo.NodeID    // [col][row] endpoint in column tree `col`
	pricer sync.Pool          // *pricer
	solo   map[string]float64 // single-job shares by signature
}

// pricer is one flow solver over a contention net and the demand buffers
// it prices (each demand's Ports slice the shared ports buffer); the pool
// hands each to one solve at a time.
type pricer struct {
	solver  *flowsim.Solver
	demands []flowsim.Demand
	ports   []int32
}

func (cn *contentionNet) getPricer() *pricer {
	if pr, ok := cn.pricer.Get().(*pricer); ok {
		return pr
	}
	return &pricer{solver: flowsim.New(cn.comp, nil, flowsim.Config{})}
}

// appendPath appends the port ids of the one path between src and dst,
// two endpoints of one tree, in hop order: up to src's L1 switch, through
// the root when dst hangs off another L1 switch, and down to dst. An
// endpoint's only port leads to its L1 switch, and an L1 switch's last
// port leads to the root (buildTree links them in that order).
func (cn *contentionNet) appendPath(ports []int32, src, dst topo.NodeID) []int32 {
	c := cn.comp
	up, down := c.PortOff[src], c.Ports[c.PortOff[dst]].Rev
	l1s, l1d := c.Ports[up].To, c.Ports[c.PortOff[dst]].To
	ports = append(ports, up)
	if l1s != l1d {
		ports = append(ports, c.PortOff[l1s+1]-1, c.Ports[c.PortOff[l1d+1]-1].Rev)
	}
	return append(ports, down)
}

func (in *Interference) defaults() (a, b, group int, taper float64, memoCap int) {
	a, b = in.BoardA, in.BoardB
	if a <= 0 {
		a = 2
	}
	if b <= 0 {
		b = 2
	}
	group = in.GroupBoards
	if group <= 0 {
		group = 16
	}
	taper = in.Taper
	if taper <= 0 {
		taper = 1
	}
	memoCap = in.MemoCap
	if memoCap <= 0 {
		memoCap = 4096
	}
	return
}

// net returns (building on first use) the contention network for an X×Y
// grid. Caller holds in.mu.
func (in *Interference) net(X, Y int) *contentionNet {
	key := [2]int{X, Y}
	if cn, ok := in.nets[key]; ok {
		return cn
	}
	a, b, group, taper, _ := in.defaults()
	cable := topo.DefaultLinkParams().GBps
	const unconstrained = 1e12
	n := &topo.Network{Name: fmt.Sprintf("sched-contention-%dx%d-g%d", X, Y, group)}
	lat := topo.DefaultLinkParams().CableNS

	// buildTree adds one dimension tree with `width` endpoints grouped by
	// `group`; uplinkGBps is the per-board tapered upper-layer capacity.
	// Node and port ids follow this build order, and the fill pops equal
	// saturation levels in an order set by port ids, so a different build
	// order can change γ.
	buildTree := func(width int, perBoardUp float64) []topo.NodeID {
		eps := make([]topo.NodeID, width)
		nGroups := (width + group - 1) / group
		var root topo.NodeID = topo.None
		if nGroups > 1 {
			root = n.AddNode(topo.Switch)
		}
		for gi := 0; gi < nGroups; gi++ {
			l1 := n.AddNode(topo.Switch)
			lo, hi := gi*group, (gi+1)*group
			if hi > width {
				hi = width
			}
			for x := lo; x < hi; x++ {
				eps[x] = n.AddNode(topo.Endpoint)
				n.Link(eps[x], l1, topo.AoC, unconstrained, lat)
			}
			if root != topo.None {
				n.Link(l1, root, topo.AoC, taper*float64(hi-lo)*perBoardUp, lat)
			}
		}
		return eps
	}

	cn := &contentionNet{
		rowEp: make([][]topo.NodeID, Y),
		colEp: make([][]topo.NodeID, X),
	}
	for r := 0; r < Y; r++ {
		cn.rowEp[r] = buildTree(X, 2*float64(b)*cable)
	}
	for c := 0; c < X; c++ {
		cn.colEp[c] = buildTree(Y, 2*float64(a)*cable)
	}
	cn.comp = simcore.Compile(n) // private net: skip the interning cache
	if in.nets == nil {
		in.nets = make(map[[2]int]*contentionNet)
	}
	in.nets[key] = cn
	return cn
}

// jobSignature is the canonical per-job fingerprint: contention pricing
// depends only on the placement geometry and comm fraction, never on job
// identity. The comm fraction is written in full ('g', -1 round-trips
// every float64), so jobs whose fractions differ anywhere never share a
// memo entry.
func jobSignature(j JobTraffic) string {
	b := make([]byte, 0, 24+4*(len(j.Placement.Rows)+len(j.Placement.Cols)))
	b = strconv.AppendFloat(b, j.CommFrac, 'g', -1, 64)
	b = append(b, 'r')
	for _, r := range j.Placement.Rows {
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, ',')
	}
	b = append(b, 'c')
	for _, c := range j.Placement.Cols {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	return string(b)
}

// addDemands appends job j's alltoall demands on the contention net to
// pr's buffers, attributed to tenant, in (tree, source, destination)
// order: row trees by row, then column trees by column, positions
// ascending within a tree. Dimension-ordered routing splits each ordered
// board pair into a row-tree segment at the source row and a column-tree
// segment at the destination column. Summed per endpoint pair, every
// row-tree pair (row r, columns c1 ≠ c2) carries the per-pair slice w once
// per placement row, and every column-tree pair (column c, rows r1 ≠ r2)
// once per placement column; the weights are accumulated by that many
// additions of w, the same sums a per-pair accumulator over the board-pair
// loop produces.
func (in *Interference) addDemands(cn *contentionNet, pr *pricer, j JobTraffic, tenant int32) {
	a, b, _, _, _ := in.defaults()
	p := j.Placement
	nBoards := p.U() * p.V()
	if nBoards <= 1 || j.CommFrac <= 0 {
		return
	}
	cable := topo.DefaultLinkParams().GBps
	ab := float64(a * b)
	// Per-board injection 4ab·cable·cf, spread uniformly over the job's
	// other accelerators; the slice aimed at one specific other board:
	w := 4 * ab * cable * j.CommFrac * ab / (float64(nBoards)*ab - 1)
	rowW, colW := 0.0, 0.0
	for range p.Rows {
		rowW += w
	}
	for range p.Cols {
		colW += w
	}
	add := func(src, dst topo.NodeID, w float64) {
		n := len(pr.ports)
		pr.ports = cn.appendPath(pr.ports, src, dst)
		pr.demands = append(pr.demands, flowsim.Demand{Ports: pr.ports[n:], Weight: w, Tenant: tenant})
	}
	// Ascending rows and columns give the (tree, source, destination) order.
	rows, cols := p.Rows, p.Cols
	if !slices.IsSorted(rows) {
		rows = slices.Sorted(slices.Values(rows))
	}
	if !slices.IsSorted(cols) {
		cols = slices.Sorted(slices.Values(cols))
	}
	for _, r := range rows {
		ep := cn.rowEp[r]
		for _, c1 := range cols {
			for _, c2 := range cols {
				if c1 != c2 {
					add(ep[c1], ep[c2], rowW)
				}
			}
		}
	}
	for _, c := range cols {
		ep := cn.colEp[c]
		for _, r1 := range rows {
			for _, r2 := range rows {
				if r1 != r2 {
					add(ep[r1], ep[r2], colW)
				}
			}
		}
	}
}

// Gammas prices the given jobs jointly on an X×Y grid and returns each
// job's contention factor γ ≥ 1 (γ=1: no cross-job interference on its
// upper-layer traffic). Jobs with no inter-board communication always get
// γ = 1. Pricing failures degrade to γ = 1 rather than poisoning the
// schedule.
func (in *Interference) Gammas(X, Y int, jobs []JobTraffic) []float64 {
	sigs := make([]string, len(jobs))
	for i, j := range jobs {
		sigs[i] = jobSignature(j)
	}
	return in.gammas(X, Y, jobs, sigs)
}

// gammas is Gammas with each job's signature supplied by the caller (the
// scheduler keeps every running job's signature from its placement).
func (in *Interference) gammas(X, Y int, jobs []JobTraffic, sigs []string) []float64 {
	out := make([]float64, len(jobs))
	for i := range out {
		out[i] = 1
	}
	if len(jobs) == 0 {
		return out
	}
	_, _, group, _, memoCap := in.defaults()
	if X <= group && Y <= group {
		return out // no shared upper layer anywhere on this grid
	}

	// Canonical order: sort job indices by signature; tenant ids and the
	// memo key follow that order, so γ never depends on caller ordering.
	order := make([]int, len(jobs))
	keyLen := 24 // the "XxY|" prefix
	for i := range order {
		order[i] = i
		keyLen += len(sigs[i]) + 1
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(sigs[a], sigs[b]) })
	key := make([]byte, 0, keyLen)
	key = strconv.AppendInt(key, int64(X), 10)
	key = append(key, 'x')
	key = strconv.AppendInt(key, int64(Y), 10)
	key = append(key, '|')
	for _, i := range order {
		key = append(key, sigs[i]...)
		key = append(key, '|')
	}

	// Look everything up under the lock; solve the misses outside it.
	solo := make([]float64, len(order))
	var soloMiss []int // tenants whose solo share is not memoized
	in.mu.Lock()
	cn := in.net(X, Y)
	joint, hit := in.memo[string(key)]
	if hit {
		in.stats.MemoHits++
	} else {
		in.stats.Solves++
	}
	for t, i := range order {
		s, ok := cn.solo[sigs[i]]
		if !ok {
			soloMiss = append(soloMiss, t)
		}
		solo[t] = s
	}
	in.mu.Unlock()

	if !hit || len(soloMiss) > 0 {
		pr := cn.getPricer()
		if !hit {
			pr.demands, pr.ports = pr.demands[:0], pr.ports[:0]
			for t, i := range order {
				in.addDemands(cn, pr, jobs[i], int32(t))
			}
			shares, err := pr.solver.TenantShares(pr.demands, len(order))
			if err != nil {
				shares = make([]float64, len(order))
				for t := range shares {
					shares[t] = 1
				}
			}
			joint = shares
		}
		for _, t := range soloMiss {
			solo[t] = in.soloShare(cn, pr, jobs[order[t]])
		}
		cn.pricer.Put(pr)

		in.mu.Lock()
		if !hit {
			if in.memo == nil || len(in.memo) >= memoCap {
				in.memo = make(map[string][]float64)
			}
			in.memo[string(key)] = joint
		}
		for _, t := range soloMiss {
			if cn.solo == nil || len(cn.solo) >= 4096 {
				cn.solo = make(map[string]float64)
			}
			cn.solo[sigs[order[t]]] = solo[t]
		}
		in.mu.Unlock()
	}

	for t, i := range order {
		g := 1.0
		if joint[t] > 0 {
			g = solo[t] / joint[t]
		}
		if g < 1 {
			g = 1
		}
		out[i] = g
	}
	return out
}

// soloShare prices job j alone on the grid's contention net with the
// caller's pricer.
func (in *Interference) soloShare(cn *contentionNet, pr *pricer, j JobTraffic) float64 {
	pr.demands, pr.ports = pr.demands[:0], pr.ports[:0]
	in.addDemands(cn, pr, j, 0)
	if len(pr.demands) == 0 {
		return 1
	}
	shares, err := pr.solver.TenantShares(pr.demands, 1)
	if err != nil {
		return 1
	}
	return shares[0]
}

// gammaFor prices a hypothetical placement for a job against the current
// running set (excluding job `exclude`, which is the job being priced when
// it is already running — regrow and failure trims re-price in place).
func (s *sim) gammaFor(p *alloc.Placement, tj TraceJob, exclude int32) float64 {
	if s.cfg.Interference == nil {
		return 1
	}
	s.collectRunning(exclude)
	jt := JobTraffic{Placement: p, CommFrac: tj.CommFrac}
	var sig string
	if exclude >= 0 && s.jobs[exclude].p == p {
		sig = s.jobs[exclude].sig // pricing the job's own placement
	} else {
		sig = jobSignature(jt)
	}
	s.traffic = append(s.traffic, jt)
	s.sigs = append(s.sigs, sig)
	g := s.cfg.Interference.gammas(s.grid.X, s.grid.Y, s.traffic, s.sigs)
	return g[len(g)-1]
}

// collectRunning fills the pricing scratch with every running job but
// exclude, in job order.
func (s *sim) collectRunning(exclude int32) {
	s.traffic, s.sigs = s.traffic[:0], s.sigs[:0]
	for i := range s.jobs {
		if j := &s.jobs[i]; int32(i) != exclude && j.running {
			s.traffic = append(s.traffic, JobTraffic{Placement: j.p, CommFrac: j.tj.CommFrac})
			s.sigs = append(s.sigs, j.sig)
		}
	}
}

// setPlacement records the job's current placement and, when contention
// pricing is on, its signature.
func (s *sim) setPlacement(j *jobState, p *alloc.Placement) {
	j.p = p
	if s.cfg.Interference != nil {
		j.sig = jobSignature(JobTraffic{Placement: p, CommFrac: j.tj.CommFrac})
	}
}

// price is job idx's slowdown on placement p, stretched at p's contention
// factor against the other running jobs (a factor of 1 when interference
// is off).
func (s *sim) price(idx int32, j *jobState, p *alloc.Placement) float64 {
	return s.stretched(j, p, s.gammaFor(p, j.tj, idx))
}

// stretched is job j's slowdown on placement p at contention factor gamma:
// 1 without a Slowdown model and never below 1 with one, times the width
// ratio while an elastic job runs on fewer boards than it requested.
func (s *sim) stretched(j *jobState, p *alloc.Placement, gamma float64) float64 {
	slow := 1.0
	if s.cfg.Slowdown != nil {
		slow = max(s.cfg.Slowdown.ContendedSlowdown(p, j.tj, gamma), 1)
	}
	if wf := float64(j.tj.Boards) / float64(boards(p)); wf > 1 {
		slow *= wf
	}
	return slow
}

// reprice re-stretches every running job whose contention factor changed:
// the end of each scheduling pass recomputes the joint γ of the running
// set, and any job whose priced slowdown moved is re-baselined at t (its
// progress so far is credited at the old slowdown, its completion event is
// epoch-bumped and rescheduled at the new one — the same staleness
// mechanism rollback uses). A no-op when interference is off, keeping
// decision logs byte-identical.
func (s *sim) reprice(t float64) {
	if s.cfg.Interference == nil {
		return
	}
	s.collectRunning(-1)
	if len(s.traffic) == 0 {
		return
	}
	gammas := s.cfg.Interference.gammas(s.grid.X, s.grid.Y, s.traffic, s.sigs)
	changed := false
	k := 0
	for i := range s.jobs {
		if !s.jobs[i].running {
			continue
		}
		idx := int32(i)
		j := &s.jobs[idx]
		gamma := gammas[k]
		k++
		slow := s.stretched(j, j.p, gamma)
		if slow == j.slowdown {
			continue
		}
		s.rebaseline(idx, j, t, slow)
		s.met.Restretches++
		changed = true
		s.logf("t=%.4f stretch job=%d gamma=%.4f slow=%.4f", t, j.tj.ID, gamma, slow)
	}
	if changed && s.resJob >= 0 {
		// Re-stretching moved completion times, so the reservation's
		// shadow projection is stale; recompute it against the new
		// schedule.
		idx := s.resJob
		s.resJob = -1
		s.reserve(t, idx, &s.jobs[idx])
	}
}
