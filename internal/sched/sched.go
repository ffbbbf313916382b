package sched

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/workload"
)

// Policy selects how the scheduler places queued jobs on the grid.
type Policy string

const (
	// FirstFit commits the first feasible placement of the requested
	// shape, with no reshaping heuristics — the dynamic counterpart of
	// Fig. 8's greedy baseline and the cheapest policy.
	FirstFit Policy = "firstfit"
	// BestFit commits the most contiguous feasible placement across the
	// full §IV-A heuristic stack (transpose + aspect-ratio reshaping):
	// candidates are scored by their upper-layer traffic fraction (the
	// Fig. 9 locality metric), so jobs land on board sets with the
	// fewest L1-group crossings.
	BestFit Policy = "bestfit"
	// FragAware searches the same reshaped candidates as BestFit but
	// commits the placement that least fragments the grid: candidates
	// are scored by the free boards left stranded in the selected rows
	// (ties broken by locality), so big contiguous blocks survive for
	// later jobs.
	FragAware Policy = "fragaware"
)

// ParsePolicy validates a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case FirstFit, BestFit, FragAware:
		return Policy(s), nil
	}
	return "", fmt.Errorf("sched: unknown policy %q (firstfit|bestfit|fragaware)", s)
}

// Policies lists the built-in placement policies.
func Policies() []Policy { return []Policy{FirstFit, BestFit, FragAware} }

// Config controls one scheduler run. Times are hours.
type Config struct {
	// Policy is the placement policy (zero value means FirstFit).
	Policy Policy
	// CheckpointH is the checkpoint interval: an evicted job restarts
	// from its last completed checkpoint, losing up to CheckpointH hours
	// of wall-clock progress. Zero means continuous checkpointing (no
	// lost work).
	CheckpointH float64
	// RepairH is the board repair time (MTTR). Zero means failed boards
	// never return to service.
	RepairH float64
	// HorizonH ends the simulation; metrics integrate over [0, HorizonH).
	HorizonH float64
	// Slowdown scales job runtimes by placement quality; nil prices every
	// placement at 1 (jobs run at their ideal service time).
	Slowdown *CommSlowdown
	// Reservation enables EASY-style backfill: when the head of the queue
	// cannot be placed, it gets a reservation — a projected start time and
	// board set computed by replaying the running jobs' completion times on
	// a shadow grid — and jobs behind it backfill only if they finish
	// before the reservation starts or avoid its boards entirely. This
	// bounds large-job wait, which greedy backfill (the default) leaves
	// unbounded under a steady stream of small jobs.
	Reservation bool
	// DefragThreshold triggers a checkpoint-migrate defragmentation pass
	// when the grid's fragmentation (alloc.Grid.Fragmentation) exceeds it
	// while jobs wait: every running job is checkpointed and evicted, the
	// queue is repacked largest-first through the policy's placement
	// search, and each migrated job pays DefragCostH as lost work. Zero
	// disables defragmentation.
	DefragThreshold float64
	// DefragCostH is the checkpoint-transfer overhead each migrated job
	// pays, in wall-clock hours: its restart is delayed by this much and
	// the time is accounted as lost board-hours.
	DefragCostH float64
	// RecordDecisions keeps the full decision log in the metrics (golden
	// tests and debugging; sweeps leave it off).
	RecordDecisions bool
	// Trace, when non-nil, records job lifecycles into the flight
	// recorder: per-job lanes with queued and run spans, checkpoint and
	// eviction instants, plus board fail/repair and defrag markers on a
	// cluster lane. Sim-hours map to trace time as 1 h = 1e6 µs (one
	// trace second). Recording never perturbs the run — decisions and
	// metrics stay bit-identical (obs contract, like observer).
	Trace *obs.Recorder
	// Interference, when non-nil, prices cross-job contention on the
	// shared upper-layer fat-trees: placements are admitted and backfilled
	// at their contention-stretched slowdown, and running jobs are
	// re-stretched (epoch-bumped, like rollback) whenever the contention
	// set changes. Contention reaches job runtimes only through the
	// Slowdown model (CommSlowdown.ContendedSlowdown); nil keeps the
	// isolation pricing byte-identical to earlier behaviour.
	Interference *Interference
	// Elastic enables malleable jobs: a queued job with MinBoards set
	// shrinks (by halving steps) to a smaller feasible shape instead of
	// waiting, stretches by the width ratio while shrunk, regrows toward
	// full width when the queue drains, and rides out board failures by
	// trimming the failed row/column instead of evicting. Elastic
	// reconfiguration is a free instant re-baseline (malleable frameworks
	// reshard in memory), unlike evictions, which still roll back to the
	// last checkpoint.
	Elastic bool
	// Preempt enables priority preemption: when a job with a higher
	// TraceJob.Priority cannot be placed, the smallest prefix of
	// strictly-lower-priority running jobs whose eviction frees a feasible
	// placement is checkpoint-evicted and requeued.
	Preempt bool

	// observer, when set (in-package tests only), is called after every
	// processed event with the live simulation state — the hook behind the
	// cluster-wide invariant harness.
	observer func(s *sim, ev event)
}

// Trace-export constants: the sched pid lane and the hours→trace-µs
// scale (distinct from netsim's pid lanes so one recorder can hold both).
const (
	tracePidSched         = 3
	traceTidCluster int32 = -1
	schedTraceScale       = 1e6 // trace µs per simulated hour
)

// emitSpan records a [from, to] span on a job's lane.
func (s *sim) emitSpan(tid int32, name string, from, to float64) {
	if tr := s.cfg.Trace; tr != nil {
		tr.Span(tracePidSched, tid, name, "job", from*schedTraceScale, (to-from)*schedTraceScale)
	}
}

// emitInstant records a point marker (tid traceTidCluster = cluster lane).
func (s *sim) emitInstant(tid int32, name string, t float64) {
	if tr := s.cfg.Trace; tr != nil {
		tr.Instant(tracePidSched, tid, name, t*schedTraceScale)
	}
}

// Metrics aggregates one scheduler run.
type Metrics struct {
	// Utilization is the time-averaged allocated/working board fraction
	// (the dynamic counterpart of the Fig. 8/10 metric).
	Utilization float64
	// GoodputUtil is useful work delivered per working board-hour:
	// checkpoint-surviving work in board-hours over the working
	// board-hours of the horizon. Slowdown, queueing, repair downtime and
	// lost work all subtract from it.
	GoodputUtil float64
	// Goodput is useful work delivered per raw board-hour of the horizon
	// (X·Y·HorizonH): the fraction of the cluster's nameplate capacity
	// converted to checkpoint-surviving work. Unlike Utilization, whose
	// working-board denominator shrinks as failures take boards down,
	// Goodput can only fall when failures destroy or delay work — it is
	// the monotone utilization-vs-MTBF curve the sweeps plot.
	Goodput float64
	// LostBoardH is the work destroyed by evictions (progress past the
	// last checkpoint), in board-hours.
	LostBoardH float64
	// LostFrac is LostBoardH over all work performed (useful + lost).
	LostFrac float64
	// WaitP50/WaitP99 are queue-wait percentiles over completed jobs
	// (including waits after evictions), in hours.
	WaitP50, WaitP99 float64
	// SlowP50/SlowP99 are job-slowdown percentiles over completed jobs:
	// (finish − arrival) / ideal service.
	SlowP50, SlowP99 float64
	// Arrived, Completed, Evictions, Rejected count jobs that entered the
	// trace window, finished, were evicted by a board failure (counting
	// re-evictions), and could never fit the grid.
	Arrived, Completed, Evictions, Rejected int
	// Backlog is the number of jobs still queued or running at the
	// horizon.
	Backlog int
	// Failures and Repairs count board state transitions applied.
	Failures, Repairs int
	// MaxWaitLarge is the longest queue wait suffered by any "large" job
	// (at least half the grid's boards, and at least one), in hours,
	// counting time still queued at the horizon — the quantity
	// reservation backfill bounds.
	MaxWaitLarge float64
	// Reservations counts reservations created for blocked head-of-queue
	// jobs; Backfills counts placements admitted behind an active
	// reservation (they finished before it or avoided its boards).
	Reservations, Backfills int
	// Defrags counts defragmentation passes; Migrations counts the job
	// checkpoint-migrations they performed.
	Defrags, Migrations int
	// MigratedBoardH is the migration overhead charged as lost work, in
	// board-hours (included in LostBoardH).
	MigratedBoardH float64
	// Restretches counts running-job re-pricings applied because the
	// contention set changed (Config.Interference).
	Restretches int
	// Shrinks counts elastic width reductions (shrunk admissions and
	// failure trims); Regrows counts elastic expansions back toward full
	// width (Config.Elastic).
	Shrinks, Regrows int
	// Preemptions counts lower-priority jobs checkpoint-evicted to admit
	// a higher-priority job (Config.Preempt).
	Preemptions int
	// Decisions is the chronological decision log (only when
	// Config.RecordDecisions is set).
	Decisions []string
}

// event kinds, in tie-breaking order at equal times: completions land
// before failures (a job that finishes the instant a board dies keeps its
// work), failures strike before repairs and arrivals, so an arriving job
// sees the degraded grid.
type evKind uint8

const (
	evComplete evKind = iota
	evFail
	evRepair
	evArrive
)

type event struct {
	t     float64
	seq   int64 // deterministic FIFO tie-break after kind
	kind  evKind
	idx   int32 // job index (arrive/complete) or failure index (fail)
	epoch int32 // evComplete: placement epoch that scheduled it
	board [2]int
}

// eventHeap is the event queue, a container/heap min-heap ordered by
// (t, kind, seq). Every push takes a fresh seq, so the order is total and
// the pop sequence does not depend on the heap's internal layout.
type eventHeap struct {
	h   []event
	seq int64
}

func (q *eventHeap) Len() int { return len(q.h) }

func (q *eventHeap) Less(a, b int) bool {
	x, y := &q.h[a], &q.h[b]
	if x.t != y.t {
		return x.t < y.t
	}
	if x.kind != y.kind {
		return x.kind < y.kind
	}
	return x.seq < y.seq
}

func (q *eventHeap) Swap(a, b int) { q.h[a], q.h[b] = q.h[b], q.h[a] }
func (q *eventHeap) Push(e any)    { q.h = append(q.h, e.(event)) }

func (q *eventHeap) Pop() any {
	e := q.h[len(q.h)-1]
	q.h = q.h[:len(q.h)-1]
	return e
}

// push queues e after every earlier push at its (t, kind).
func (q *eventHeap) push(e event) {
	e.seq = q.seq
	q.seq++
	heap.Push(q, e)
}

// jobState is the scheduler's mutable per-job record.
type jobState struct {
	tj        TraceJob
	u, v      int     // requested shape
	remaining float64 // ideal work hours left from the last checkpoint
	done      float64 // checkpoint-surviving ideal work hours
	p         *alloc.Placement
	slowdown  float64
	startT    float64 // wall time the current placement started
	epoch     int32   // bumped on eviction; stale completions are dropped
	queuedAt  float64
	wait      float64
	queued    bool
	running   bool
	finished  bool
	rejected  bool
	finishT   float64
	// completeT is the scheduled completion time of the current placement
	// (valid while running) — the release time reservation projections
	// replay on the shadow grid.
	completeT float64
	// overheadPending is migration overhead (hours) the job's next
	// placement must pay before useful work resumes; runOverheadH is the
	// overhead baked into the current placement's schedule, excluded from
	// checkpoint progress on eviction.
	overheadPending, runOverheadH float64
	// sig is the current placement's contention-pricing signature
	// (jobSignature), kept while interference is on so pricing never
	// re-formats it; setPlacement maintains it.
	sig string
}

// sim is one in-flight run.
type sim struct {
	cfg     Config
	grid    *alloc.Grid
	jobs    []jobState
	queue   []int32 // job indices, scan order
	events  eventHeap
	met     Metrics
	opts    alloc.Options
	usefulH float64 // checkpoint-surviving work, board-hours

	// utilization integrals, updated lazily at every event
	lastT            float64
	allocH, workingH float64

	// reservation state (Config.Reservation): the blocked head-of-queue
	// job holding the reservation, its projected start time, and the
	// reserved board set. Recomputed from scratch at every scheduling
	// pass, so it always reflects the current grid and running set.
	resJob    int32
	resTime   float64
	resBoards []bool // X*Y bitset

	lastDefragT float64 // last defragmentation pass (-Inf before the first)

	// pendingRequeue holds jobs evicted mid-pass (preemption victims):
	// they rejoin the queue after the current scan's rebuild, so the scan
	// slice is never mutated underfoot.
	pendingRequeue []int32

	// pendingFailSched is set when a board failure deferred its scheduling
	// pass because more failures land at the same instant (a correlated
	// burst): rescheduling mid-burst would place evicted jobs onto boards
	// the same outage is about to kill. The burst's last event runs the
	// deferred pass.
	pendingFailSched bool

	// traffic and sigs are the contention-pricing scratch gammaFor and
	// reprice fill with the running set.
	traffic []JobTraffic
	sigs    []string
}

// Run replays a trace against an x×y board grid under the failure process
// and config, returning the aggregated metrics. Runs are deterministic:
// the same (trace, failures, cfg) triple produces the same decisions.
func Run(x, y int, trace []TraceJob, failures []FailEvent, cfg Config) (*Metrics, error) {
	if x < 1 || y < 1 {
		return nil, fmt.Errorf("sched: invalid grid %dx%d", x, y)
	}
	if cfg.HorizonH <= 0 {
		return nil, fmt.Errorf("sched: config needs a positive HorizonH")
	}
	if cfg.Policy == "" {
		cfg.Policy = FirstFit
	}
	if _, err := ParsePolicy(string(cfg.Policy)); err != nil {
		return nil, err
	}
	s := &sim{cfg: cfg, grid: alloc.NewGrid(x, y), opts: policyOptions(cfg.Policy),
		resJob: -1, lastDefragT: math.Inf(-1)}
	if tr := cfg.Trace; tr != nil {
		tr.SetProcessName(tracePidSched, "sched")
		tr.SetThreadName(tracePidSched, traceTidCluster, "cluster")
	}
	s.jobs = make([]jobState, len(trace))
	for i, tj := range trace {
		// Jobs are shaped as square as possible (§IV-B default, shared
		// with the static allocation study).
		u, v := workload.ShapeFor(tj.Boards)
		s.jobs[i] = jobState{tj: tj, u: u, v: v, remaining: tj.Service}
		if tj.Arrival < cfg.HorizonH {
			s.events.push(event{t: tj.Arrival, kind: evArrive, idx: int32(i)})
		}
	}
	for fi, fe := range failures {
		if fe.Time < cfg.HorizonH {
			s.events.push(event{t: fe.Time, kind: evFail, idx: int32(fi), board: fe.Board})
		}
	}

	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(event)
		if ev.t >= cfg.HorizonH {
			break
		}
		s.integrateTo(ev.t)
		switch ev.kind {
		case evArrive:
			s.onArrive(ev)
		case evComplete:
			s.onComplete(ev)
		case evFail:
			s.onFail(ev)
		case evRepair:
			s.onRepair(ev)
		}
		s.maybeDefrag(ev.t)
		if cfg.observer != nil {
			cfg.observer(s, ev)
		}
	}
	s.integrateTo(cfg.HorizonH)
	s.finish()
	return &s.met, nil
}

// policyOptions maps a policy to the allocator heuristics it searches with:
// FirstFit places the requested shape greedily, the other policies search
// the full §IV-A reshaping space.
func policyOptions(p Policy) alloc.Options {
	switch p {
	case BestFit:
		return alloc.DefaultOptions()
	case FragAware:
		return alloc.Options{Transpose: true, AspectRatio: true}
	}
	return alloc.Options{}
}

func (s *sim) integrateTo(t float64) {
	if dt := t - s.lastT; dt > 0 {
		s.allocH += dt * float64(s.grid.AllocatedBoards())
		s.workingH += dt * float64(s.grid.WorkingBoards())
	}
	s.lastT = t
}

func (s *sim) logf(format string, args ...any) {
	if s.cfg.RecordDecisions {
		s.met.Decisions = append(s.met.Decisions, fmt.Sprintf(format, args...))
	}
}

func (s *sim) onArrive(ev event) {
	j := &s.jobs[ev.idx]
	s.met.Arrived++
	s.logf("t=%.4f arrive job=%d boards=%d service=%.4f", ev.t, j.tj.ID, j.tj.Boards, j.tj.Service)
	// A job no allowed shape of which fits the grid dimensions can never
	// run (the criterion behind the allocator's typed *ErrNeverFits);
	// anything else queues and waits for capacity. An elastic job whose
	// full shape is too big still queues if some shrunk width fits.
	if !s.grid.FitsDims(j.u, j.v, s.opts) && !s.elasticFitsDims(j) {
		j.rejected = true
		s.met.Rejected++
		err := &alloc.ErrNeverFits{Job: ev.idx, U: j.u, V: j.v, X: s.grid.X, Y: s.grid.Y}
		s.logf("t=%.4f reject job=%d: %v", ev.t, j.tj.ID, err)
		return
	}
	s.enqueue(ev.idx, ev.t, false)
	s.trySchedule(ev.t)
}

// enqueue adds a job to the scan queue; evicted jobs go to the front (they
// already waited once, and restarting them quickly bounds the lost-work
// window).
func (s *sim) enqueue(idx int32, t float64, front bool) {
	j := &s.jobs[idx]
	j.queued = true
	j.queuedAt = t
	if front {
		s.queue = append([]int32{idx}, s.queue...)
	} else {
		s.queue = append(s.queue, idx)
	}
}

// trySchedule scans the queue in order and places every job that fits.
// Without Config.Reservation this is greedy backfill: a blocked large job
// does not stall smaller ones behind it — utilization-friendly, at the
// price of unbounded large-job delay. With Reservation the first blocked
// job gets a reservation (projected start time and board set from a
// shadow replay of the running jobs' completions) and jobs behind it are
// admitted only if they finish before the reservation starts or avoid its
// boards entirely — EASY backfill, bounding head-of-queue wait.
func (s *sim) trySchedule(t float64) {
	s.resJob = -1 // reservations are recomputed fresh every pass
	reserveTried := false
	kept := s.queue[:0]
	for _, idx := range s.queue {
		j := &s.jobs[idx]
		if s.resJob >= 0 {
			// A reservation is active: jobs behind the blocked head may
			// only backfill.
			if !s.tryBackfill(idx, j, t) {
				kept = append(kept, idx)
			}
			continue
		}
		p := s.findPlacement(s.grid, idx, j.u, j.v)
		if p == nil && s.cfg.Elastic {
			p = s.findShrunkPlacement(idx, j, j.tj.MinBoards)
		}
		if p == nil {
			p = s.tryPreempt(idx, j, t)
		}
		if p == nil {
			if s.cfg.Reservation && !reserveTried {
				// Only the first blocked job reserves (EASY); if no
				// projection fits (e.g. the degraded grid can never hold
				// it), fall back to greedy for the rest of the queue.
				reserveTried = true
				s.reserve(t, idx, j)
			}
			kept = append(kept, idx)
			continue
		}
		s.start(idx, j, p, t)
	}
	s.queue = append([]int32(nil), kept...)
	if len(s.pendingRequeue) > 0 {
		s.queue = append(s.queue, s.pendingRequeue...)
		s.pendingRequeue = s.pendingRequeue[:0]
	}
	s.tryRegrow(t)
	s.reprice(t)
}

// start commits a candidate placement and schedules the job's completion.
func (s *sim) start(idx int32, j *jobState, p *alloc.Placement, t float64) {
	if err := s.grid.Commit(p); err != nil {
		// Candidates were enumerated against the current grid; a failed
		// commit means a bookkeeping bug, not a runtime condition.
		panic(err)
	}
	j.queued = false
	j.running = true
	s.setPlacement(j, p)
	j.startT = t
	j.wait += t - j.queuedAt
	j.slowdown = s.price(idx, j, p)
	if n := boards(p); n < j.tj.Boards {
		// Elastic shrink: the job runs below its requested width, and its
		// price includes the width ratio.
		s.met.Shrinks++
		s.logf("t=%.4f shrink job=%d boards=%d->%d", t, j.tj.ID, j.tj.Boards, n)
	}
	j.runOverheadH = j.overheadPending
	j.overheadPending = 0
	j.completeT = t + j.runOverheadH + j.remaining*j.slowdown
	s.emitSpan(j.tj.ID, "queued", j.queuedAt, t)
	s.events.push(event{t: j.completeT, kind: evComplete, idx: idx, epoch: j.epoch})
	s.logf("t=%.4f place job=%d shape=%dx%d rows=%v cols=%v slow=%.4f remaining=%.4f",
		t, j.tj.ID, p.U(), p.V(), p.Rows, p.Cols, j.slowdown, j.remaining)
}

// findPlacement runs the policy's placement search for job idx at shape
// u×v on g (the job's request, or a shrunk elastic width) and returns the
// uncommitted winner (nil when nothing fits). Separating the search from
// the commit lets reservation projections run the identical search on
// shadow grids and lets backfill veto a placement before it lands.
func (s *sim) findPlacement(g *alloc.Grid, idx int32, u, v int) *alloc.Placement {
	cands := g.PlaceCandidates(idx, u, v, s.opts)
	if len(cands) == 0 {
		return nil
	}
	switch s.cfg.Policy {
	case BestFit:
		// Most contiguous wins: lowest upper-layer alltoall traffic
		// fraction (the Fig. 9 locality metric).
		best, bestScore := cands[0], alloc.UpperLayerFraction(cands[0], alloc.TrafficAlltoall, alloc.GroupBoards)
		for _, p := range cands[1:] {
			if score := alloc.UpperLayerFraction(p, alloc.TrafficAlltoall, alloc.GroupBoards); score < bestScore {
				best, bestScore = p, score
			}
		}
		return best
	case FragAware:
		// Fragmentation-aware: the candidate that strands the fewest free
		// boards in its rows (best-fit by row occupancy), ties broken
		// toward locality.
		best, bestFrag, bestLoc := cands[0], fragScore(g, cands[0]), alloc.UpperLayerFraction(cands[0], alloc.TrafficAlltoall, alloc.GroupBoards)
		for _, p := range cands[1:] {
			frag := fragScore(g, p)
			loc := alloc.UpperLayerFraction(p, alloc.TrafficAlltoall, alloc.GroupBoards)
			if frag < bestFrag || (frag == bestFrag && loc < bestLoc) {
				best, bestFrag, bestLoc = p, frag, loc
			}
		}
		return best
	}
	return cands[0] // FirstFit: first feasible shape
}

// fragScore counts the free boards that would remain in the placement's
// rows after committing it — the capacity the placement strands.
func fragScore(g *alloc.Grid, p *alloc.Placement) int {
	free := 0
	for _, r := range p.Rows {
		for c := 0; c < g.X; c++ {
			if g.Owner(c, r) == alloc.Free {
				free++
			}
		}
	}
	return free - len(p.Rows)*len(p.Cols)
}

// reserve projects a start time and board set for a blocked head-of-queue
// job: the running jobs' scheduled completions are replayed in time order
// on a shadow grid, and the first release after which the policy's search
// finds a placement becomes the reservation. Failed boards stay failed in
// the projection (repairs are not anticipated), so reservations are
// conservative on degraded grids.
func (s *sim) reserve(now float64, idx int32, j *jobState) {
	type release struct {
		t   float64
		idx int32
	}
	var rels []release
	for i := range s.jobs {
		if s.jobs[i].running {
			rels = append(rels, release{s.jobs[i].completeT, int32(i)})
		}
	}
	if len(rels) == 0 {
		return // nothing will free up; no projection exists
	}
	sort.Slice(rels, func(a, b int) bool {
		if rels[a].t != rels[b].t {
			return rels[a].t < rels[b].t
		}
		return rels[a].idx < rels[b].idx
	})
	shadow := s.grid.Clone()
	for _, r := range rels {
		shadow.Release(r.idx)
		p := s.findPlacement(shadow, idx, j.u, j.v)
		if p == nil {
			continue
		}
		s.resJob = idx
		s.resTime = r.t
		if s.resBoards == nil {
			s.resBoards = make([]bool, s.grid.X*s.grid.Y)
		}
		clear(s.resBoards)
		for _, row := range p.Rows {
			for _, col := range p.Cols {
				s.resBoards[row*s.grid.X+col] = true
			}
		}
		s.met.Reservations++
		s.logf("t=%.4f reserve job=%d at=%.4f rows=%v cols=%v", now, j.tj.ID, r.t, p.Rows, p.Cols)
		return
	}
}

// tryBackfill places a job behind an active reservation if doing so cannot
// delay it: the job either finishes (including pending migration overhead)
// before the reservation starts, or its boards are disjoint from the
// reserved set. The finish estimate is contention-priced when interference
// is on — an isolation estimate would optimistically admit backfills whose
// contention-stretched runtimes overlap the reservation.
func (s *sim) tryBackfill(idx int32, j *jobState, t float64) bool {
	p := s.findPlacement(s.grid, idx, j.u, j.v)
	if p == nil {
		return false
	}
	finish := t + j.overheadPending + j.remaining*s.price(idx, j, p)
	if finish > s.resTime+1e-9 && s.overlapsReservation(p) {
		return false
	}
	s.met.Backfills++
	s.start(idx, j, p, t)
	return true
}

// overlapsReservation reports whether any board of p is reserved.
func (s *sim) overlapsReservation(p *alloc.Placement) bool {
	for _, row := range p.Rows {
		for _, col := range p.Cols {
			if s.resBoards[row*s.grid.X+col] {
				return true
			}
		}
	}
	return false
}

func (s *sim) onComplete(ev event) {
	j := &s.jobs[ev.idx]
	if !j.running || j.epoch != ev.epoch {
		return // stale: the job was evicted after this completion was scheduled
	}
	j.running = false
	j.finished = true
	j.finishT = ev.t
	// Credit only the work beyond the last checkpoint: everything before
	// it was credited at the evictions that created the checkpoints.
	s.usefulH += j.remaining * float64(j.tj.Boards)
	j.done += j.remaining
	j.remaining = 0
	s.grid.Release(ev.idx)
	j.p = nil
	s.met.Completed++
	s.emitSpan(j.tj.ID, "run", j.startT, ev.t)
	s.logf("t=%.4f complete job=%d", ev.t, j.tj.ID)
	s.trySchedule(ev.t)
}

func (s *sim) onFail(ev event) {
	bx, by := ev.board[0], ev.board[1]
	if s.grid.Owner(bx, by) == alloc.Failed {
		// A failure striking an already-failed board changes nothing; the
		// pending repair (if any) still applies. A pass deferred by an
		// earlier same-instant failure still runs once the burst ends.
		s.logf("t=%.4f fail board=(%d,%d) already-down", ev.t, bx, by)
		if s.pendingFailSched {
			s.rescheduleAfterFail(ev.t)
		}
		return
	}
	s.met.Failures++
	s.emitInstant(traceTidCluster, "board-fail", ev.t)
	// An elastic owner may ride the failure out by trimming the board's
	// row or column, which frees the board before it goes down.
	owner := s.grid.Owner(bx, by)
	trimmed := owner >= 0 && s.tryFailureShrink(owner, bx, by, ev.t)
	victim := s.grid.Fail(bx, by)
	if s.cfg.RepairH > 0 {
		s.events.push(event{t: ev.t + s.cfg.RepairH, kind: evRepair, board: ev.board})
	}
	switch {
	case trimmed:
		s.logf("t=%.4f fail board=(%d,%d) shrink=%d", ev.t, bx, by, s.jobs[owner].tj.ID)
	case victim < 0:
		// Capacity shrank, but the queue may reshuffle shapes.
		s.logf("t=%.4f fail board=(%d,%d)", ev.t, bx, by)
	default:
		j := &s.jobs[victim]
		lost := s.rollback(j, ev.t)
		s.met.Evictions++
		s.logf("t=%.4f fail board=(%d,%d) evict=%d lost=%.4fh", ev.t, bx, by, j.tj.ID, lost)
		s.enqueue(victim, ev.t, true)
	}
	s.rescheduleAfterFail(ev.t)
}

// rescheduleAfterFail runs the scheduling pass after a board failure —
// unless more failures land at this same instant (a correlated burst), in
// which case the pass defers to the burst's last event: rescheduling
// mid-burst would place just-evicted jobs onto boards the same outage is
// about to kill, counting one physical outage as several evictions. The
// reservation is dropped either way (its projection predates the failure);
// the deferred pass recomputes it.
func (s *sim) rescheduleAfterFail(t float64) {
	if q := s.events.h; len(q) > 0 && q[0].kind == evFail && q[0].t == t {
		s.pendingFailSched = true
		s.resJob = -1
		return
	}
	s.pendingFailSched = false
	s.trySchedule(t)
}

// checkpointed returns the ideal work hours a running job has done on its
// current placement by time t (progress) and the part of them its last
// checkpoint captured (ckpt ≤ progress). Migration overhead at the start
// of the run was checkpoint transfer, not work, and counts as neither.
func (s *sim) checkpointed(j *jobState, t float64) (progress, ckpt float64) {
	elapsed := t - j.startT - j.runOverheadH
	if elapsed < 0 {
		elapsed = 0
	}
	progress = elapsed / j.slowdown
	ckpt = progress
	if s.cfg.CheckpointH > 0 {
		// Checkpoints fire on wall-clock intervals; work captured by the
		// last one is the checkpointed wall time over the slowdown.
		ckpt = min(math.Floor(elapsed/s.cfg.CheckpointH)*s.cfg.CheckpointH/j.slowdown, progress)
	}
	return progress, ckpt
}

// rollback rolls a running job back to its last checkpoint, accounting the
// work past it as lost, and returns the lost ideal-hours. The caller frees
// the job's boards (Fail already did for evictions; defrag and preemption
// release them explicitly) and requeues it.
func (s *sim) rollback(j *jobState, t float64) float64 {
	progress, ckpt := s.checkpointed(j, t)
	if s.cfg.Trace != nil {
		s.emitSpan(j.tj.ID, "evicted", j.startT, t)
		if s.cfg.CheckpointH > 0 && ckpt > 0 {
			// Wall time of the last completed checkpoint the job restarts
			// from.
			s.emitInstant(j.tj.ID, "checkpoint", j.startT+j.runOverheadH+ckpt*j.slowdown)
		}
		s.emitInstant(j.tj.ID, "evict", t)
	}
	lost := progress - ckpt
	j.done += ckpt
	j.remaining = j.tj.Service - j.done
	if j.remaining < 0 {
		j.remaining = 0
	}
	j.epoch++
	j.running = false
	j.p = nil
	s.usefulH += ckpt * float64(j.tj.Boards)
	s.met.LostBoardH += lost * float64(j.tj.Boards)
	return lost
}

// defragMinGapH is the minimum time between defragmentation passes, in
// hours, bounding migration churn when a repack cannot reduce
// fragmentation.
const defragMinGapH = 1

// maybeDefrag runs a checkpoint-migrate defragmentation pass when enabled,
// jobs are waiting, fragmentation crossed the threshold, the pass gap has
// elapsed, and there is something to migrate. Mid-burst events (a deferred
// failure pass is pending) never defrag: migrating onto boards the same
// outage is about to kill would churn placements.
func (s *sim) maybeDefrag(t float64) {
	if s.cfg.DefragThreshold <= 0 || len(s.queue) == 0 || s.pendingFailSched {
		return
	}
	if t < s.lastDefragT+defragMinGapH {
		return
	}
	frag := s.grid.Fragmentation()
	if frag <= s.cfg.DefragThreshold {
		return
	}
	var running []int32
	for i := range s.jobs {
		if s.jobs[i].running {
			running = append(running, int32(i))
		}
	}
	if len(running) == 0 {
		return
	}
	s.defrag(t, frag, running)
}

// defrag checkpoints and evicts every running job, requeues them
// largest-first ahead of the waiting queue, and repacks through the
// policy's placement search. Each migrated job pays DefragCostH of
// checkpoint-transfer overhead, accounted as lost work and added to its
// restart schedule, on top of the usual rollback to its last checkpoint.
func (s *sim) defrag(t, frag float64, running []int32) {
	s.lastDefragT = t
	s.met.Defrags++
	s.emitInstant(traceTidCluster, "defrag", t)
	sort.Slice(running, func(a, b int) bool {
		ja, jb := &s.jobs[running[a]], &s.jobs[running[b]]
		if ja.tj.Boards != jb.tj.Boards {
			return ja.tj.Boards > jb.tj.Boards
		}
		return running[a] < running[b]
	})
	for _, idx := range running {
		j := &s.jobs[idx]
		s.rollback(j, t)
		s.grid.Release(idx)
		j.overheadPending = s.cfg.DefragCostH
		j.queued = true
		j.queuedAt = t
		s.met.Migrations++
		cost := s.cfg.DefragCostH * float64(j.tj.Boards)
		s.met.MigratedBoardH += cost
		s.met.LostBoardH += cost
	}
	s.queue = append(running, s.queue...)
	s.logf("t=%.4f defrag frag=%.4f migrated=%d", t, frag, len(running))
	s.trySchedule(t)
}

func (s *sim) onRepair(ev event) {
	if s.grid.Repair(ev.board[0], ev.board[1]) {
		s.met.Repairs++
		s.emitInstant(traceTidCluster, "board-repair", ev.t)
		s.logf("t=%.4f repair board=(%d,%d)", ev.t, ev.board[0], ev.board[1])
		s.trySchedule(ev.t)
	}
}

// finish computes the aggregate metrics at the horizon.
func (s *sim) finish() {
	h := s.cfg.HorizonH
	// Work running at the horizon survives up to its last checkpoint.
	for i := range s.jobs {
		j := &s.jobs[i]
		if !j.running {
			if j.queued {
				s.met.Backlog++
			}
			continue
		}
		s.met.Backlog++
		_, ckpt := s.checkpointed(j, h)
		s.usefulH += min(ckpt, j.tj.Service-j.done) * float64(j.tj.Boards)
	}
	if s.workingH > 0 {
		s.met.Utilization = s.allocH / s.workingH
		s.met.GoodputUtil = s.usefulH / s.workingH
	}
	if raw := float64(s.grid.X*s.grid.Y) * h; raw > 0 {
		s.met.Goodput = s.usefulH / raw
	}
	if tot := s.usefulH + s.met.LostBoardH; tot > 0 {
		s.met.LostFrac = s.met.LostBoardH / tot
	}
	var waits, slows []float64
	for i := range s.jobs {
		j := &s.jobs[i]
		if !j.finished {
			continue
		}
		waits = append(waits, j.wait)
		if j.tj.Service > 0 {
			slows = append(slows, (j.finishT-j.tj.Arrival)/j.tj.Service)
		}
	}
	s.met.WaitP50, s.met.WaitP99 = percentiles(waits)
	s.met.SlowP50, s.met.SlowP99 = percentiles(slows)
	// The large-job wait bound: completed large jobs contribute their full
	// accumulated wait, still-queued ones the wait they are suffering at
	// the horizon.
	large := max(s.grid.X*s.grid.Y/2, 1)
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.tj.Boards < large {
			continue
		}
		w := j.wait
		if j.queued {
			w += h - j.queuedAt
		}
		if w > s.met.MaxWaitLarge {
			s.met.MaxWaitLarge = w
		}
	}
}

func percentiles(vals []float64) (p50, p99 float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pick := func(q float64) float64 { return s[int(q*float64(len(s)-1))] }
	return pick(0.5), pick(0.99)
}
