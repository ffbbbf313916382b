package sched

import (
	"iter"
	"sort"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/workload"
)

// This file implements the malleable-job behaviours behind Config.Elastic
// and the priority preemption behind Config.Preempt. Elastic width changes
// (shrunk admission, regrow, failure trims) are free instant re-baselines:
// the job's progress is credited at its old slowdown and its schedule
// restarts under the new one, with no checkpoint rollback — malleable
// training frameworks reshard state in memory. Preemption victims, by
// contrast, are killed: they pay the full rollback to their last
// checkpoint, exactly like failure evictions.

// rebaseline credits a running job's progress at its current slowdown and
// restarts its schedule at t under newSlow. The completion event is
// epoch-bumped so the superseded one is dropped as stale.
func (s *sim) rebaseline(idx int32, j *jobState, t, newSlow float64) {
	elapsed := t - j.startT - j.runOverheadH
	leftover := 0.0
	if elapsed < 0 {
		// Still inside the migration overhead window: the unpaid remainder
		// carries over to the new schedule.
		leftover = -elapsed
		elapsed = 0
	}
	progress := elapsed / j.slowdown
	if progress > j.remaining {
		progress = j.remaining
	}
	j.done += progress
	j.remaining -= progress
	s.usefulH += progress * float64(j.tj.Boards)
	j.startT = t
	j.runOverheadH = leftover
	j.slowdown = newSlow
	j.epoch++
	j.completeT = t + leftover + j.remaining*newSlow
	s.events.push(event{t: j.completeT, kind: evComplete, idx: idx, epoch: j.epoch})
}

// boards is a placement's board count.
func boards(p *alloc.Placement) int { return p.U() * p.V() }

// halvings yields the shapes of the halved widths of an n-board job,
// widest first: n/2, n/4, ... down to floor. A floor below 1 (a rigid
// job's MinBoards) yields none.
func halvings(n, floor int) iter.Seq2[int, int] {
	return func(yield func(u, v int) bool) {
		for bb := n / 2; floor >= 1 && bb >= floor; bb /= 2 {
			if !yield(workload.ShapeFor(bb)) {
				return
			}
		}
	}
}

// elasticFitsDims reports whether some halved width of an elastic job fits
// the grid dimensions — the admission criterion for jobs whose full shape
// never can (they queue and run shrunk instead of being rejected).
func (s *sim) elasticFitsDims(j *jobState) bool {
	if !s.cfg.Elastic {
		return false
	}
	for u, v := range halvings(j.tj.Boards, j.tj.MinBoards) {
		if s.grid.FitsDims(u, v, s.opts) {
			return true
		}
	}
	return false
}

// findShrunkPlacement searches the halved widths of job idx, down to
// floor, for a placement on the grid.
func (s *sim) findShrunkPlacement(idx int32, j *jobState, floor int) *alloc.Placement {
	for u, v := range halvings(j.tj.Boards, floor) {
		if p := s.findPlacement(s.grid, idx, u, v); p != nil {
			return p
		}
	}
	return nil
}

// replace moves running job idx onto p at t — an elastic regrow or
// failure trim the caller has already applied to the grid — re-pricing it
// and re-baselining its schedule without a rollback, and counts it in n.
func (s *sim) replace(idx int32, j *jobState, p *alloc.Placement, t float64, what string, n *int) {
	old := boards(j.p)
	s.setPlacement(j, p)
	slow := s.price(idx, j, p)
	s.rebaseline(idx, j, t, slow)
	*n++
	s.logf("t=%.4f %s job=%d boards=%d->%d slow=%.4f", t, what, j.tj.ID, old, boards(p), slow)
}

// tryRegrow expands shrunken elastic jobs back toward full width once the
// queue has drained: each one releases its boards, re-runs the policy's
// full-shape search (its own freed boards are candidates) and, when full
// width does not fit (or never fits the grid), the halving ladder down to
// just above its current width; it either migrates to the bigger
// placement or recommits the old one unchanged.
func (s *sim) tryRegrow(t float64) {
	if !s.cfg.Elastic || len(s.queue) > 0 {
		return
	}
	for i := range s.jobs {
		j, idx := &s.jobs[i], int32(i)
		if !j.running || boards(j.p) >= j.tj.Boards {
			continue
		}
		old := j.p
		s.grid.Release(idx)
		p := s.findPlacement(s.grid, idx, j.u, j.v)
		if p == nil {
			p = s.findShrunkPlacement(idx, j, boards(old)+1)
		}
		if p == nil || boards(p) <= boards(old) {
			p = old
		}
		if err := s.grid.Commit(p); err != nil {
			panic(err)
		}
		if p != old {
			s.replace(idx, j, p, t, "regrow", &s.met.Regrows)
		}
	}
}

// tryFailureShrink keeps an elastic victim running through a board failure
// by trimming the failed board's row or column from its placement
// (whichever keeps more boards, ties dropping the column). Returns false
// when the job is not elastic or no trim stays at or above MinBoards; the
// caller then falls back to eviction.
func (s *sim) tryFailureShrink(victim int32, bx, by int, t float64) bool {
	if !s.cfg.Elastic {
		return false
	}
	j := &s.jobs[victim]
	if j.tj.MinBoards <= 0 || !j.running {
		return false
	}
	p := j.p
	u, v := p.U(), p.V()
	dropCol := v > 1 && u*(v-1) >= j.tj.MinBoards
	dropRow := u > 1 && (u-1)*v >= j.tj.MinBoards && (!dropCol || (u-1)*v > u*(v-1))
	var np *alloc.Placement
	var err error
	switch {
	case dropRow:
		np, err = s.grid.Shrink(p, without(p.Rows, by), p.Cols)
	case dropCol:
		np, err = s.grid.Shrink(p, p.Rows, without(p.Cols, bx))
	default:
		return false
	}
	if err != nil {
		return false
	}
	s.replace(victim, j, np, t, "shrink", &s.met.Shrinks)
	return true
}

// without returns xs minus the first occurrence of x.
func without(xs []int, x int) []int {
	out := make([]int, 0, len(xs)-1)
	for _, v := range xs {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// tryPreempt admits a higher-priority job by checkpoint-evicting the
// smallest prefix of strictly-lower-priority running jobs (ordered lowest
// priority first, then largest first) whose release frees a feasible
// placement — verified on a shadow grid before anything real is touched.
// Victims roll back to their last checkpoint and requeue after the current
// scan. Returns the placement to commit, or nil.
func (s *sim) tryPreempt(idx int32, j *jobState, t float64) *alloc.Placement {
	if !s.cfg.Preempt || j.tj.Priority <= 0 {
		return nil
	}
	var vics []int32
	for i := range s.jobs {
		if s.jobs[i].running && s.jobs[i].tj.Priority < j.tj.Priority {
			vics = append(vics, int32(i))
		}
	}
	if len(vics) == 0 {
		return nil
	}
	// Lowest priority first (the least important die first), then most
	// boards (fewest victims freed), then index for determinism.
	sort.Slice(vics, func(a, b int) bool {
		ja, jb := &s.jobs[vics[a]], &s.jobs[vics[b]]
		if ja.tj.Priority != jb.tj.Priority {
			return ja.tj.Priority < jb.tj.Priority
		}
		if na, nb := boards(ja.p), boards(jb.p); na != nb {
			return na > nb
		}
		return vics[a] < vics[b]
	})
	shadow := s.grid.Clone()
	var p *alloc.Placement
	prefix := 0
	for _, v := range vics {
		shadow.Release(v)
		prefix++
		if cand := s.findPlacement(shadow, idx, j.u, j.v); cand != nil {
			p = cand
			break
		}
	}
	if p == nil {
		return nil
	}
	for _, v := range vics[:prefix] {
		vj := &s.jobs[v]
		lost := s.rollback(vj, t)
		s.grid.Release(v)
		vj.queued = true
		vj.queuedAt = t
		s.pendingRequeue = append(s.pendingRequeue, v)
		s.met.Preemptions++
		s.logf("t=%.4f preempt victim=%d by=%d lost=%.4fh", t, vj.tj.ID, j.tj.ID, lost)
	}
	return p
}
