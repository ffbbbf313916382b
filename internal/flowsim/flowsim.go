// Package flowsim is a flow-level max-min fair throughput solver. Where
// internal/netsim simulates individual packets, flowsim computes the
// steady-state rate allocation of long-lived flows by water-filling: every
// flow is split over k sampled shortest paths (approximating packet-level
// adaptive routing), and rates rise uniformly until links saturate, the
// classic progressive-filling algorithm for max-min fairness.
//
// The solver runs on the compiled flat-array network (internal/simcore):
// channel ids are compiled port ids, parallel links between a node pair are
// spread round-robin through the precompiled link groups, and sampled paths
// are deduplicated by an FNV-1a hash of their node ids — no map is keyed by
// node or port ids and path sampling does not allocate string keys.
//
// Water-filling is incremental and event-driven rather than round-based:
// with L loaded links and S subflows of mean path length ℓ, a min-heap over
// per-link saturation levels (remaining capacity over active weight)
// processes each link saturation once and touches only the links of the
// subflows it freezes, so a solve costs O((L + S·ℓ)·log L) instead of the
// round-based O(rounds·(L + S·ℓ)) where the round count itself grows with
// the cluster. All solver state (subflow CSR, per-link headrooms, the heap,
// path-sample buffers) lives in scratch arrays sized once per Solver and
// reused across Solve calls, so a shift sweep allocates only its result
// slices. One fill serves both entry points: Solve raises every sampled
// subflow at unit rate without bound, and TenantShares (weighted max-min
// over a multi-job traffic matrix) samples nothing — each demand brings its
// one path, which rises at the demand's weight up to full satisfaction.
//
// The solver scales to the paper's 16k-endpoint clusters where packet
// simulation of 1 MiB-per-peer alltoall would need billions of packet
// events (the paper itself spent 0.6M core hours in SST); cross-validation
// against netsim at small scale lives in the tests, and the round-based
// reference implementation is kept in the tests for equivalence checks.
package flowsim

import (
	"fmt"
	"math"
	"slices"

	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// Flow is one steady flow between endpoints.
type Flow struct {
	Src, Dst topo.NodeID
}

// Config controls path sampling.
type Config struct {
	// PathsPerFlow is the number of sampled shortest paths a flow's
	// traffic is spread over (ECMP-style). Zero means 4.
	PathsPerFlow int
	// ValiantPaths adds that many non-minimal subflows per flow, each via
	// a random intermediate switch (UGAL-style load balancing; the paper
	// runs UGAL-L on Dragonfly, where minimal-only routing collapses
	// under shifted traffic).
	ValiantPaths int
	// Seed offsets path sampling.
	Seed uint64
}

// Solver holds per-network state reusable across Solve calls. It is not
// safe for concurrent use (the round-robin cursors and scratch arrays
// mutate), but solvers are cheap: all heavy immutable state lives in the
// shared Compiled network and routing Table, so parallel sweeps give each
// worker its own Solver over the shared table (see
// runner.AlltoallFlowShare).
type Solver struct {
	comp  *simcore.Compiled
	table *routing.Table
	cfg   Config

	// mask is the routing table's degraded-fabric overlay (nil when
	// pristine): masked channels are skipped by the parallel-link
	// round-robin and never carry subflow rate.
	mask simcore.PortMask

	// rr[g] is the round-robin cursor of parallel-link group g (unsigned
	// so unbounded increments wrap instead of going negative).
	rr []uint32

	// Subflow CSR, rebuilt per solve into reused backing arrays: subflow i
	// crosses channels subLinks[subOff[i]:subOff[i+1]] and, in Solve,
	// belongs to flow subFlow[i].
	subFlow  []int32
	subOff   []int32
	subLinks []int32

	// flowHashes deduplicates the current flow's sampled paths (a handful
	// of entries, so a linear scan replaces the old per-call map).
	flowHashes []uint64

	// pathBuf/tailBuf are the reused path-sample buffers (with the chosen
	// global port id per hop alongside); Valiant detours splice head+tail
	// into pathBuf instead of allocating per sample.
	pathBuf  []topo.NodeID
	tailBuf  []topo.NodeID
	portBuf  []int32
	tailPort []int32

	// Water-filling scratch, sized to NumPorts once per Solver.
	remCap  []float64 // remaining capacity of link l at fill level lastT[l]
	lastT   []float64 // fill level at which remCap[l] was last materialized
	wOnLink []float64 // summed weight of the active subflows crossing link l
	linkOff []int32   // CSR offsets: subflows crossing link l
	linkCur []int32   // fill cursor for the linkSubs CSR build
	linkSub []int32   // CSR payload, sized to len(subLinks) per Solve
	weights []float64 // per-subflow rise rate per unit fill level
	rates   []float64 // per-subflow frozen rate
	heap    []satEntry

	// TenantShares' per-tenant sums of achieved rate and offered weight.
	sumRate, sumW []float64

	// stats accumulates solver-work counters across Solve calls (plain
	// ints on the single-threaded solve path; see Stats).
	stats SolveStats
}

// SolveStats are cumulative work counters of a Solver, for the obs
// layer: heap pops and lazy re-keys measure the event-driven
// water-filling effort, saturations counts frozen links, subflows the
// sampled-path volume. Reading them costs nothing and recording them is
// a handful of integer increments per solve — the solver's results are
// unaffected (obs contract).
type SolveStats struct {
	HeapPops    int64
	ReKeys      int64
	Saturations int64
	Subflows    int64
}

// Stats returns the cumulative counters since the Solver was created.
func (s *Solver) Stats() SolveStats { return s.stats }

// satEntry is one pending link-saturation event: at fill level t, link
// `link` runs out of headroom. Saturation levels only grow as other links
// freeze subflows, so entries are lazily re-keyed on pop (the popped key is
// compared against the link's current level and re-pushed if it grew) and
// each link keeps at most one live entry.
type satEntry struct {
	t    float64
	link int32
}

// New creates a solver over a compiled network; table may be nil.
func New(c *simcore.Compiled, table *routing.Table, cfg Config) *Solver {
	if table == nil {
		table = routing.NewTable(c)
	}
	if cfg.PathsPerFlow <= 0 {
		cfg.PathsPerFlow = 4
	}
	nLinks := c.NumPorts()
	return &Solver{
		comp: c, table: table, cfg: cfg, mask: table.Mask(),
		rr: make([]uint32, len(c.GroupOff)-1),
		// Port buffers start non-nil: AppendSamplePathPorts records hops
		// only into a non-nil buffer.
		portBuf:  make([]int32, 0, 64),
		tailPort: make([]int32, 0, 64),
		remCap:   make([]float64, nLinks),
		lastT:    make([]float64, nLinks),
		wOnLink:  make([]float64, nLinks),
		linkOff:  make([]int32, nLinks+1),
		linkCur:  make([]int32, nLinks),
	}
}

// NewNet creates a solver straight from a network, compiling it through the
// simcore cache.
func NewNet(n *topo.Network, table *routing.Table, cfg Config) *Solver {
	return New(simcore.Of(n), table, cfg)
}

// pathHash is an FNV-1a style hash over the node ids of a path, used to
// deduplicate sampled paths without building string keys.
func pathHash(path []topo.NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range path {
		h ^= uint64(uint32(v))
		h *= prime64
	}
	return h
}

// addPath appends one subflow for the sampled path unless an identical path
// was already sampled for this flow. hops are the sampled global port ids
// of the path's edges (len(path)-1 of them): each hop resolves to a channel
// through its parallel-link group without re-scanning the adjacency.
func (s *Solver) addPath(fi int, path []topo.NodeID, hops []int32) error {
	key := pathHash(path)
	for _, h := range s.flowHashes {
		if h == key {
			return nil
		}
	}
	s.flowHashes = append(s.flowHashes, key)
	for _, pid := range hops {
		ch, err := s.pickChannelFromPort(pid)
		if err != nil {
			return err
		}
		s.subLinks = append(s.subLinks, ch)
	}
	s.subFlow = append(s.subFlow, int32(fi))
	s.subOff = append(s.subOff, int32(len(s.subLinks)))
	return nil
}

// buildSubflows samples every flow's paths into the solver's subflow CSR
// (reusing the backing arrays of earlier Solve calls).
func (s *Solver) buildSubflows(flows []Flow) error {
	s.subFlow = s.subFlow[:0]
	s.subOff = append(s.subOff[:0], 0)
	s.subLinks = s.subLinks[:0]
	for fi, f := range flows {
		if f.Src == f.Dst {
			return fmt.Errorf("flowsim: flow %d is a self-flow", fi)
		}
		s.flowHashes = s.flowHashes[:0]
		for k := 0; k < s.cfg.PathsPerFlow; k++ {
			// A flow whose destination was cut off on a degraded fabric is
			// a typed error, not a zero-link subflow with infinite rate.
			var err error
			s.pathBuf, s.portBuf, err = s.table.AppendSamplePathPorts(
				s.pathBuf[:0], s.portBuf[:0], f.Src, f.Dst, s.cfg.Seed+uint64(fi)*131+uint64(k)*7919)
			if err != nil {
				return fmt.Errorf("flowsim: flow %d: %w", fi, err)
			}
			if err := s.addPath(fi, s.pathBuf, s.portBuf); err != nil {
				return fmt.Errorf("flowsim: flow %d: %w", fi, err)
			}
		}
		for k := 0; k < s.cfg.ValiantPaths; k++ {
			mid := s.randomSwitch(s.cfg.Seed + uint64(fi)*977 + uint64(k)*31337)
			if mid < 0 || mid == f.Src || mid == f.Dst {
				continue
			}
			// Unreachable intermediates (e.g. a dead switch) are skipped —
			// the minimal subflows above already guarantee connectivity. The
			// detour is spliced head+tail[1:] into the reused path buffers.
			head, headPorts, errH := s.table.AppendSamplePathPorts(
				s.pathBuf[:0], s.portBuf[:0], f.Src, mid, s.cfg.Seed+uint64(fi)*13+uint64(k))
			if errH != nil {
				continue
			}
			s.pathBuf, s.portBuf = head, headPorts
			tail, tailPorts, errT := s.table.AppendSamplePathPorts(
				s.tailBuf[:0], s.tailPort[:0], mid, f.Dst, s.cfg.Seed+uint64(fi)*17+uint64(k))
			if errT != nil {
				continue
			}
			s.tailBuf, s.tailPort = tail, tailPorts
			s.pathBuf = append(s.pathBuf, s.tailBuf[1:]...)
			s.portBuf = append(s.portBuf, s.tailPort...)
			if err := s.addPath(fi, s.pathBuf, s.portBuf); err != nil {
				return fmt.Errorf("flowsim: flow %d: %w", fi, err)
			}
		}
	}
	return nil
}

// waterfill runs incremental progressive filling over the built subflow CSR
// and leaves each subflow's max-min rate in s.rates.
//
// Every active subflow rises at its weight s.weights[si] per unit of fill
// level T, so link l with fixed active weight w and remaining capacity r
// saturates at level T + r/w — and whenever another link's saturation
// freezes subflows, only the links those subflows cross change state.
// Because freezing subflows only ever *raises* the survivors' saturation
// levels, a min-heap with lazy re-keying on pop (compare the popped key
// against the link's current level, re-push if it grew) processes each
// saturation event in O(log L) touching only the frozen subflows' links.
// A subflow frozen at level T gets rate weight·T.
//
// The level is capped at limit: once the next saturation lies at or past
// it, every still-rising subflow stops there. With limit = +Inf an
// exhausted heap is an error instead. tol absorbs floating-point residue
// that depends on the caller's weights: a popped entry is re-keyed only
// when its link's level exceeds the key by more than tol, and a link
// whose active weight falls to tol or below counts as unloaded.
func (s *Solver) waterfill(limit, tol float64) error {
	nSubs := len(s.subOff) - 1
	nLinks := s.comp.NumPorts()
	if cap(s.rates) < nSubs {
		s.rates = make([]float64, nSubs)
	}
	s.rates = s.rates[:nSubs]
	for l := 0; l < nLinks; l++ {
		s.remCap[l] = s.comp.Ports[l].GBps
		s.lastT[l] = 0
		s.wOnLink[l] = 0
	}
	// CSR of subflows per link (only loaded links have entries): count
	// into linkOff[l+1], then prefix-sum.
	clear(s.linkOff)
	for si := 0; si < nSubs; si++ {
		for _, l := range s.subLinks[s.subOff[si]:s.subOff[si+1]] {
			s.linkOff[l+1]++
			s.wOnLink[l] += s.weights[si]
		}
	}
	for l := 0; l < nLinks; l++ {
		s.linkOff[l+1] += s.linkOff[l]
		s.linkCur[l] = s.linkOff[l]
	}
	if cap(s.linkSub) < len(s.subLinks) {
		s.linkSub = make([]int32, len(s.subLinks))
	}
	s.linkSub = s.linkSub[:len(s.subLinks)]
	for si := 0; si < nSubs; si++ {
		for _, l := range s.subLinks[s.subOff[si]:s.subOff[si+1]] {
			s.linkSub[s.linkCur[l]] = int32(si)
			s.linkCur[l]++
		}
	}
	// rates[si] < 0 marks subflow si as still active (rising); freezing
	// assigns its final nonnegative rate.
	for si := range s.rates {
		s.rates[si] = -1
	}
	s.heap = s.heap[:0]
	for l := 0; l < nLinks; l++ {
		if s.wOnLink[l] > tol {
			s.heap = append(s.heap, satEntry{t: s.remCap[l] / s.wOnLink[l], link: int32(l)})
		}
	}
	s.heapify()
	T := 0.0
	frozen := 0
	s.stats.Subflows += int64(nSubs)
	for frozen < nSubs && len(s.heap) > 0 {
		e := s.heapPop()
		s.stats.HeapPops++
		l := e.link
		wl := s.wOnLink[l]
		if wl <= tol {
			continue // all of this link's subflows were frozen elsewhere
		}
		trueT := s.lastT[l] + s.remCap[l]/wl
		if trueT > e.t+tol {
			// The link lost active subflows since the push, moving its
			// saturation level up; re-key and re-examine later.
			s.heapPush(satEntry{t: trueT, link: l})
			s.stats.ReKeys++
			continue
		}
		if trueT >= limit {
			break // every still-rising subflow reaches limit first
		}
		s.stats.Saturations++
		if trueT > T {
			T = trueT
		}
		// Link l is saturated at fill level T: freeze its active subflows,
		// materializing the consumed headroom of every link they cross.
		for _, si := range s.linkSub[s.linkOff[l]:s.linkOff[l+1]] {
			if s.rates[si] >= 0 {
				continue
			}
			w := s.weights[si]
			s.rates[si] = w * T
			frozen++
			for _, m := range s.subLinks[s.subOff[si]:s.subOff[si+1]] {
				wm := s.wOnLink[m]
				r := s.remCap[m] - (T-s.lastT[m])*wm
				if r < 0 {
					r = 0
				}
				if wm -= w; wm < tol {
					wm = 0
				}
				s.remCap[m], s.lastT[m], s.wOnLink[m] = r, T, wm
			}
		}
	}
	if frozen < nSubs {
		if math.IsInf(limit, 1) {
			return fmt.Errorf("flowsim: water-filling ran dry with %d subflows active", nSubs-frozen)
		}
		for si, r := range s.rates {
			if r < 0 {
				s.rates[si] = s.weights[si] * limit
			}
		}
	}
	return nil
}

// heapify establishes the heap property over an unordered s.heap in O(n).
func (s *Solver) heapify() {
	n := len(s.heap)
	for i := n/2 - 1; i >= 0; i-- {
		s.siftDown(i, n)
	}
}

func (s *Solver) siftDown(i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && s.heap[c+1].t < s.heap[c].t {
			c++
		}
		if s.heap[i].t <= s.heap[c].t {
			return
		}
		s.heap[i], s.heap[c] = s.heap[c], s.heap[i]
		i = c
	}
}

func (s *Solver) heapPush(e satEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].t <= s.heap[i].t {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *Solver) heapPop() satEntry {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.siftDown(0, last)
	return top
}

// Solve returns the max-min fair rate (GB/s) of each flow. The returned
// slice is freshly allocated; all intermediate state is reused across calls
// on the same Solver.
func (s *Solver) Solve(flows []Flow) ([]float64, error) {
	if err := s.buildSubflows(flows); err != nil {
		return nil, err
	}
	s.weights = slices.Grow(s.weights[:0], len(s.subFlow))
	for range s.subFlow {
		s.weights = append(s.weights, 1)
	}
	// Unit weights keep every per-link weight an exact integer count, so
	// there is no residue to absorb; a nonzero tol would only let a link
	// saturate ahead of links whose levels lie less than tol below its own.
	if err := s.waterfill(math.Inf(1), 0); err != nil {
		return nil, err
	}
	out := make([]float64, len(flows))
	for i, fi := range s.subFlow {
		out[fi] += s.rates[i]
	}
	return out, nil
}

// randomSwitch picks a deterministic pseudo-random switch node.
func (s *Solver) randomSwitch(seed uint64) topo.NodeID {
	sw := s.comp.Switches
	if len(sw) == 0 {
		return topo.None
	}
	seed = seed*6364136223846793005 + 1442695040888963407
	return sw[int(seed>>33)%len(sw)]
}

// pickChannelFromPort chooses the channel of one sampled hop: round-robin
// among the hop's parallel-link group (resolved in O(1) from the sampled
// port id). Masked (failed) channels are skipped — surviving parallel links
// absorb the group's traffic, which is exactly the degraded-bandwidth
// behaviour the resilience sweeps measure. A fully-failed group is a typed
// error instead of a panic.
func (s *Solver) pickChannelFromPort(pid int32) (int32, error) {
	g := s.comp.GroupOf[pid]
	chans := s.comp.GroupMembers(g)
	for range chans {
		c := chans[s.rr[g]%uint32(len(chans))]
		s.rr[g]++
		if !s.mask.Get(c) {
			return c, nil
		}
	}
	return -1, &routing.ErrUnreachable{From: topo.NodeID(s.comp.Owner[pid]), To: topo.NodeID(s.comp.Ports[pid].To)}
}

// ShiftFlows mirrors netsim.ShiftFlows for the solver.
func ShiftFlows(endpoints []topo.NodeID, shift int) []Flow {
	p := len(endpoints)
	shift = ((shift % p) + p) % p
	if shift == 0 {
		return nil
	}
	flows := make([]Flow, 0, p)
	for j := 0; j < p; j++ {
		flows = append(flows, Flow{Src: endpoints[j], Dst: endpoints[(j+shift)%p]})
	}
	return flows
}

// SampleShifts returns the nShifts pseudo-random shift values in [1, p-1]
// drawn by AlltoallShareOver under the given seed. The serial sweep and the
// runner's pooled AlltoallFlowShare share this sequence, so both estimate
// the same sampled iterations.
func SampleShifts(p, nShifts int, seed uint64) []int {
	if nShifts <= 0 || nShifts > p-1 {
		nShifts = p - 1
	}
	out := make([]int, nShifts)
	rng := seed | 1
	for k := range out {
		rng = rng*6364136223846793005 + 1442695040888963407
		out[k] = 1 + int(rng>>33)%(p-1)
	}
	return out
}

// AlltoallShare estimates the alltoall bandwidth share of the injection
// bandwidth over sampled shift permutations. The paper's balanced-shift
// implementation runs without barriers between iterations, so a process
// that finishes one shift early starts the next; the sustained
// per-endpoint bandwidth is therefore the harmonic mean across shifts of
// each shift's *mean* max-min flow rate (not its slowest flow).
func (s *Solver) AlltoallShare(nShifts int, injectGBps float64, seed uint64) (float64, error) {
	return s.AlltoallShareOver(s.comp.Endpoints, nShifts, injectGBps, seed)
}

// AlltoallShareOver is AlltoallShare restricted to a subset of endpoints —
// on a degraded fabric the alltoall runs among the surviving accelerators
// (see faults.FaultSet.SurvivingEndpoints), matching how a resilient job
// would be rescheduled around dead boards.
func (s *Solver) AlltoallShareOver(endpoints []topo.NodeID, nShifts int, injectGBps float64, seed uint64) (float64, error) {
	p := len(endpoints)
	if p < 2 {
		return 0, fmt.Errorf("flowsim: need ≥2 endpoints")
	}
	sumInvRate := 0.0
	shifts := SampleShifts(p, nShifts, seed)
	for _, shift := range shifts {
		rates, err := s.Solve(ShiftFlows(endpoints, shift))
		if err != nil {
			return 0, err
		}
		mean := 0.0
		for _, r := range rates {
			mean += r
		}
		mean /= float64(len(rates))
		if mean <= 0 {
			return 0, fmt.Errorf("flowsim: zero-rate shift")
		}
		sumInvRate += 1 / mean
	}
	// Harmonic mean over iterations = effective sustained bandwidth.
	eff := float64(len(shifts)) / sumInvRate
	return eff / injectGBps, nil
}

// PermutationRates solves one random permutation and returns per-flow
// rates (GB/s); used for the Fig. 12 bandwidth distribution.
func (s *Solver) PermutationRates(perm []int) ([]float64, error) {
	eps := s.comp.Endpoints
	flows := make([]Flow, 0, len(perm))
	for i, j := range perm {
		if i == j {
			return nil, fmt.Errorf("flowsim: permutation has fixed point %d", i)
		}
		flows = append(flows, Flow{Src: eps[i], Dst: eps[j]})
	}
	return s.Solve(flows)
}
