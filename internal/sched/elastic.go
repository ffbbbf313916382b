package sched

import (
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

// elasticFitsDims reports whether some halved width of an elastic job fits
// the grid dimensions — the admission criterion for jobs whose full shape
// never can (they queue and run shrunk instead of being rejected).
func (s *sim) elasticFitsDims(j *jobState) bool {
	if !s.cfg.Elastic {
		return false
	}
	min := j.tj.MinBoards
	if min <= 0 || min >= j.tj.Boards {
		return false
	}
	for bb := j.tj.Boards / 2; bb >= min && bb >= 1; bb /= 2 {
		if u, v := workload.ShapeFor(bb); s.grid.FitsDims(u, v, s.opts) {
			return true
		}
	}
	return false
}

// findShrunkPlacement searches successively halved board counts (down to
// MinBoards) for an elastic job that cannot be placed at full width.
func (s *sim) findShrunkPlacement(idx int32, j *jobState) *alloc.Placement {
	min := j.tj.MinBoards
	if min <= 0 || min >= j.tj.Boards {
		return nil
	}
	for bb := j.tj.Boards / 2; bb >= min && bb >= 1; bb /= 2 {
		u, v := workload.ShapeFor(bb)
		if p := s.findPlacementShape(s.grid, idx, u, v); p != nil {
			return p
		}
	}
	return nil
}

// tryRegrow expands shrunken elastic jobs back toward full width once the
// queue has drained: each one releases its boards, re-runs the policy's
// full-shape search (its own freed boards are candidates), and either
// migrates to the bigger placement or recommits the old one unchanged.
func (s *sim) tryRegrow(t float64) {
	if !s.cfg.Elastic || len(s.queue) > 0 {
		return
	}
	for i := range s.jobs {
		j := &s.jobs[i]
		if !j.running || j.allocBoards >= j.tj.Boards {
			continue
		}
		old := j.p
		s.grid.Release(int32(i))
		p := s.findPlacement(s.grid, int32(i), j)
		// Full width may not fit (or even never fit the grid); try the
		// halving ladder down to just above the current width.
		for bb := j.tj.Boards / 2; p == nil && bb > j.allocBoards; bb /= 2 {
			u, v := workload.ShapeFor(bb)
			p = s.findPlacementShape(s.grid, int32(i), u, v)
		}
		if p == nil || p.U()*p.V() <= j.allocBoards {
			if err := s.grid.Commit(old); err != nil {
				panic(err)
			}
			continue
		}
		if err := s.grid.Commit(p); err != nil {
			panic(err)
		}
		oldBoards := j.allocBoards
		s.setPlacement(j, p)
		j.allocBoards = p.U() * p.V()
		slow, gamma := s.priceSlowdown(p, j.tj, int32(i))
		if wf := float64(j.tj.Boards) / float64(j.allocBoards); wf > 1 {
			slow *= wf
		}
		s.rebaseline(int32(i), j, t, slow)
		j.gamma = gamma
		s.met.Regrows++
		s.logf("t=%.4f regrow job=%d boards=%d->%d slow=%.4f", t, j.tj.ID, oldBoards, j.allocBoards, slow)
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
	type trim struct {
		rows, cols []int
		boards     int
	}
	var cands []trim
	if v > 1 {
		if nb := u * (v - 1); nb >= j.tj.MinBoards {
			cands = append(cands, trim{p.Rows, without(p.Cols, bx), nb})
		}
	}
	if u > 1 {
		if nb := (u - 1) * v; nb >= j.tj.MinBoards {
			cands = append(cands, trim{without(p.Rows, by), p.Cols, nb})
		}
	}
	if len(cands) == 0 {
		return false
	}
	best := cands[0]
	if len(cands) == 2 && cands[1].boards > cands[0].boards {
		best = cands[1]
	}
	np, err := s.grid.Shrink(p, best.rows, best.cols)
	if err != nil {
		return false
	}
	oldBoards := j.allocBoards
	s.setPlacement(j, np)
	j.allocBoards = np.U() * np.V()
	slow, gamma := s.priceSlowdown(np, j.tj, victim)
	if wf := float64(j.tj.Boards) / float64(j.allocBoards); wf > 1 {
		slow *= wf
	}
	s.rebaseline(victim, j, t, slow)
	j.gamma = gamma
	s.met.Shrinks++
	s.logf("t=%.4f shrink job=%d boards=%d->%d slow=%.4f", t, j.tj.ID, oldBoards, j.allocBoards, slow)
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
	sortPreemptVictims(s, vics)
	shadow := s.grid.Clone()
	var p *alloc.Placement
	prefix := 0
	for _, v := range vics {
		shadow.Release(v)
		prefix++
		if cand := s.findPlacement(shadow, idx, j); cand != nil {
			p = cand
			break
		}
	}
	if p == nil {
		return nil
	}
	for _, v := range vics[:prefix] {
		vj := &s.jobs[v]
		lost := s.rollback(v, vj, t)
		s.grid.Release(v)
		vj.queued = true
		vj.queuedAt = t
		s.pendingRequeue = append(s.pendingRequeue, v)
		s.met.Preemptions++
		s.logf("t=%.4f preempt victim=%d by=%d lost=%.4fh", t, vj.tj.ID, j.tj.ID, lost)
	}
	return p
}

// sortPreemptVictims orders candidate victims: lowest priority first (the
// least important die first), then most boards (fewest victims freed), then
// index for determinism.
func sortPreemptVictims(s *sim, vics []int32) {
	for i := 1; i < len(vics); i++ {
		for k := i; k > 0 && preemptBefore(s, vics[k], vics[k-1]); k-- {
			vics[k], vics[k-1] = vics[k-1], vics[k]
		}
	}
}

func preemptBefore(s *sim, a, b int32) bool {
	ja, jb := &s.jobs[a], &s.jobs[b]
	if ja.tj.Priority != jb.tj.Priority {
		return ja.tj.Priority < jb.tj.Priority
	}
	if ja.allocBoards != jb.allocBoards {
		return ja.allocBoards > jb.allocBoards
	}
	return a < b
}
