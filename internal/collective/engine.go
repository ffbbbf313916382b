package collective

import (
	"fmt"

	"hammingmesh/internal/netsim"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// SimResult is the outcome of a message-level collective simulation.
type SimResult struct {
	TimeNS       float64 // total collective time
	Rounds       int     // communication rounds executed
	BytesPerNode int64   // bytes sent per participant
}

// BandwidthGBps is the algorithm bandwidth (input size / time).
func (r SimResult) BandwidthGBps(totalBytes int64) float64 {
	if r.TimeNS <= 0 {
		return 0
	}
	return float64(totalBytes) / r.TimeNS
}

// roundRunner executes rounds of flows on a shared simulator, summing the
// bulk-synchronous makespans. This models the paper's eager-protocol
// collectives at message granularity: each pipelined-ring round exchanges
// one segment per neighbor pair, and a round completes when its slowest
// message is delivered (no cross-round pipelining, which makes the result
// a slight upper bound on the fully pipelined schedule).
type roundRunner struct {
	comp       *simcore.Compiled
	table      *routing.Table // shared across rounds (each BFS computed once)
	cfg        netsim.Config
	time       float64
	round      int
	sentByRank []int64 // bytes sent per endpoint rank
}

func newRoundRunner(c *simcore.Compiled, cfg netsim.Config) *roundRunner {
	return &roundRunner{
		comp: c, table: routing.NewTable(c), cfg: cfg,
		sentByRank: make([]int64, c.NumEndpoints()),
	}
}

func (rr *roundRunner) run(flows []netsim.Flow) error {
	if len(flows) == 0 {
		return nil
	}
	res, err := netsim.New(rr.comp, rr.table, rr.cfg).Run(flows)
	if err != nil {
		return err
	}
	if res.Deadlocked {
		return fmt.Errorf("collective: round %d deadlocked", rr.round)
	}
	rr.time += res.Makespan
	rr.round++
	for _, f := range flows {
		rr.sentByRank[rr.comp.RankOf[f.Src]] += f.Bytes
	}
	return nil
}

func (rr *roundRunner) result() SimResult {
	var maxSent int64
	for _, b := range rr.sentByRank {
		if b > maxSent {
			maxSent = b
		}
	}
	return SimResult{TimeNS: rr.time, Rounds: rr.round, BytesPerNode: maxSent}
}

// SimulateRingAllreduce runs a pipelined ring allreduce of totalBytes per
// node through the packet simulator, round by round: a reduce-scatter
// epoch of p−1 rounds followed by an allgather epoch of p−1 rounds, each
// round sending one segment to the ring successor (§V-A2b). With
// bidirectional set, the data is split in half and both directions run
// concurrently in every round.
func SimulateRingAllreduce(c *simcore.Compiled, ring []topo.NodeID, totalBytes int64, bidirectional bool, cfg netsim.Config) (SimResult, error) {
	p := len(ring)
	if p < 3 {
		return SimResult{}, fmt.Errorf("collective: ring of %d too small", p)
	}
	seg := totalBytes / int64(p)
	if seg <= 0 {
		seg = 1
	}
	if bidirectional {
		seg = (seg + 1) / 2
	}
	rr := newRoundRunner(c, cfg)
	for epoch := 0; epoch < 2; epoch++ {
		for round := 0; round < p-1; round++ {
			flows := make([]netsim.Flow, 0, 2*p)
			for i := 0; i < p; i++ {
				flows = append(flows, netsim.Flow{Src: ring[i], Dst: ring[(i+1)%p], Bytes: seg})
				if bidirectional {
					flows = append(flows, netsim.Flow{Src: ring[i], Dst: ring[(i-1+p)%p], Bytes: seg})
				}
			}
			if err := rr.run(flows); err != nil {
				return SimResult{}, err
			}
		}
	}
	return rr.result(), nil
}

// SimulateTwoRingsAllreduce runs the four-interface variant: two
// bidirectional pipelined rings on the edge-disjoint Hamiltonian cycles,
// each reducing half of the data (§V-A2b). Rounds of both rings execute
// concurrently in the same simulation.
func SimulateTwoRingsAllreduce(c *simcore.Compiled, ring1, ring2 []topo.NodeID, totalBytes int64, cfg netsim.Config) (SimResult, error) {
	p := len(ring1)
	if len(ring2) != p || p < 3 {
		return SimResult{}, fmt.Errorf("collective: rings must have equal size ≥ 3")
	}
	// Per ring: S/2 bytes, bidirectional: S/4 per direction, segments of
	// S/(4p).
	seg := totalBytes / int64(4*p)
	if seg <= 0 {
		seg = 1
	}
	rr := newRoundRunner(c, cfg)
	for epoch := 0; epoch < 2; epoch++ {
		for round := 0; round < p-1; round++ {
			flows := make([]netsim.Flow, 0, 4*p)
			for _, ring := range [][]topo.NodeID{ring1, ring2} {
				for i := 0; i < p; i++ {
					flows = append(flows, netsim.Flow{Src: ring[i], Dst: ring[(i+1)%p], Bytes: seg})
					flows = append(flows, netsim.Flow{Src: ring[i], Dst: ring[(i-1+p)%p], Bytes: seg})
				}
			}
			if err := rr.run(flows); err != nil {
				return SimResult{}, err
			}
		}
	}
	return rr.result(), nil
}

// SimulateTorusAllreduce runs the 2D algorithm of §V-A2c on an HxMesh
// accelerator grid: reduce-scatter along rows, allreduce along columns on
// the reduced chunk, allgather along rows. The two transposed parallel
// instances are approximated by a single instance on half the data per
// §V-A2c's accounting (both instances share the simulated plane).
func SimulateTorusAllreduce(h *topo.HxMesh, totalBytes int64, cfg netsim.Config) (SimResult, error) {
	rows := h.Cfg.Y * h.Cfg.B
	cols := h.Cfg.X * h.Cfg.A
	if rows < 3 || cols < 3 {
		return SimResult{}, fmt.Errorf("collective: grid %dx%d too small", rows, cols)
	}
	half := totalBytes / 2
	rr := newRoundRunner(simcore.Compile(h.Network), cfg)

	rowRing := func(r int) []topo.NodeID {
		ring := make([]topo.NodeID, cols)
		for c := 0; c < cols; c++ {
			ring[c] = h.Accel(c, r)
		}
		return ring
	}
	colRing := func(c int) []topo.NodeID {
		ring := make([]topo.NodeID, rows)
		for r := 0; r < rows; r++ {
			ring[r] = h.Accel(c, r)
		}
		return ring
	}
	ringRounds := func(rings [][]topo.NodeID, seg int64, rounds int, bidir bool) error {
		if seg <= 0 {
			seg = 1
		}
		for round := 0; round < rounds; round++ {
			var flows []netsim.Flow
			for _, ring := range rings {
				p := len(ring)
				for i := 0; i < p; i++ {
					flows = append(flows, netsim.Flow{Src: ring[i], Dst: ring[(i+1)%p], Bytes: seg})
					if bidir {
						flows = append(flows, netsim.Flow{Src: ring[i], Dst: ring[(i-1+p)%p], Bytes: seg})
					}
				}
			}
			if err := rr.run(flows); err != nil {
				return err
			}
		}
		return nil
	}

	allRows := make([][]topo.NodeID, rows)
	for r := 0; r < rows; r++ {
		allRows[r] = rowRing(r)
	}
	allCols := make([][]topo.NodeID, cols)
	for c := 0; c < cols; c++ {
		allCols[c] = colRing(c)
	}
	// Phase 1: reduce-scatter along rows — p−1 rounds of S/(2·cols) each
	// direction (bidirectional halves the segment again).
	if err := ringRounds(allRows, half/int64(2*cols), cols-1, true); err != nil {
		return SimResult{}, err
	}
	// Phase 2: ring allreduce along columns on the reduced chunk
	// (S/(2·cols) per node): 2(rows−1) rounds.
	chunk := half / int64(cols)
	if err := ringRounds(allCols, chunk/int64(2*rows), 2*(rows-1), true); err != nil {
		return SimResult{}, err
	}
	// Phase 3: allgather along rows, mirroring phase 1.
	if err := ringRounds(allRows, half/int64(2*cols), cols-1, true); err != nil {
		return SimResult{}, err
	}
	return rr.result(), nil
}

// SimulateAlltoall runs the balanced-shift alltoall (§V-A1a) at message
// granularity: p−1 shift rounds of bytesPerPeer each.
func SimulateAlltoall(c *simcore.Compiled, bytesPerPeer int64, maxRounds int, cfg netsim.Config) (SimResult, error) {
	p := c.NumEndpoints()
	if p < 2 {
		return SimResult{}, fmt.Errorf("collective: need ≥2 endpoints")
	}
	rounds := p - 1
	scale := 1.0
	if maxRounds > 0 && maxRounds < rounds {
		// Sample evenly spaced shifts and scale the total time.
		scale = float64(rounds) / float64(maxRounds)
		rounds = maxRounds
	}
	rr := newRoundRunner(c, cfg)
	for k := 1; k <= rounds; k++ {
		shift := k
		if scale > 1 {
			shift = 1 + (k-1)*(p-1)/rounds
		}
		if err := rr.run(netsim.ShiftFlows(c.Endpoints, shift, bytesPerPeer)); err != nil {
			return SimResult{}, err
		}
	}
	res := rr.result()
	res.TimeNS *= scale
	return res, nil
}
