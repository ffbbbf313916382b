package sched

import (
	"fmt"
	"testing"

	"hammingmesh/internal/alloc"
)

// The cluster-wide invariant harness: a randomized trace with independent
// failures, correlated bursts and repairs is replayed under every
// (policy × reservation × defrag) combination, and after every processed
// event the full simulation state is checked against the scheduler's
// global invariants — ownership consistency, no placements on failed
// boards, reservation/placement disjointness, work-accounting bounds, and
// eviction liveness. Each combination processes at least 5,000 events.
func TestInvariantsUnderAllPolicyCombos(t *testing.T) {
	const x, y = 6, 6
	const horizon = 300.0
	trace := Synthetic(TraceConfig{Jobs: 900, ArrivalRate: 3, MeanService: 2.5, MaxBoards: 24, CommFrac: 0.2}, 77)
	ind := mtbfFailures(x, y, horizon, 8, 5)
	bursts := NewBursts(x, y, BurstShape{W: 2, H: 1}, horizon, 0.1, 5).Thin(0.1)
	fails := MergeFailures(ind, bursts)
	if len(bursts) == 0 || len(ind) == 0 {
		t.Fatalf("degenerate failure mix: %d independent, %d burst events", len(ind), len(bursts))
	}

	for _, pol := range Policies() {
		for _, resv := range []bool{false, true} {
			for _, th := range []float64{0, 0.3} {
				name := fmt.Sprintf("%s/res=%v/defrag=%g", pol, resv, th)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Policy: pol, CheckpointH: 1.5, RepairH: 6, HorizonH: horizon,
						Reservation: resv, DefragThreshold: th, DefragCostH: 0.1,
					}
					events := 0
					prevEpoch := make([]int32, len(trace))
					cfg.observer = func(s *sim, ev event) {
						events++
						checkInvariants(t, s, prevEpoch, events)
					}
					m, err := Run(x, y, trace, fails, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if events < 5000 {
						t.Fatalf("processed %d events, want ≥ 5000 (grow the trace)", events)
					}
					// Final accounting bounds: goodput can never exceed
					// utilization (useful work needs allocated boards, raw
					// hours dominate working hours).
					if m.Goodput > m.Utilization+1e-9 || m.GoodputUtil > m.Utilization+1e-9 {
						t.Fatalf("goodput %.6f / goodput-util %.6f above utilization %.6f",
							m.Goodput, m.GoodputUtil, m.Utilization)
					}
					if th == 0 && (m.Defrags != 0 || m.Migrations != 0) {
						t.Fatalf("defrag disabled but ran %d passes", m.Defrags)
					}
					if !resv && m.Reservations != 0 {
						t.Fatalf("reservation disabled but created %d", m.Reservations)
					}
					if m.Evictions == 0 {
						t.Fatal("harness wants evictions; tune the failure process")
					}
				})
			}
		}
	}
}

// checkInvariants asserts the global invariants on the live state after
// one event.
func checkInvariants(t *testing.T, s *sim, prevEpoch []int32, events int) {
	t.Helper()
	x, y := s.grid.X, s.grid.Y

	// Ownership: every running job owns exactly its placement's boards
	// (never a failed board), and every owned board belongs to a running
	// job.
	ownedByRunning := 0
	runningByID := make(map[int32]bool)
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.queued && j.running {
			t.Fatalf("event %d: job %d both queued and running", events, i)
		}
		if j.finished && (j.queued || j.running) {
			t.Fatalf("event %d: finished job %d still queued/running", events, i)
		}
		// Eviction liveness: a job that was ever rolled back must stay in
		// the system until it finishes or the trace ends queued.
		if j.epoch > prevEpoch[i] {
			prevEpoch[i] = j.epoch
		}
		if j.epoch > 0 && !j.finished && !j.rejected && !j.queued && !j.running {
			t.Fatalf("event %d: evicted job %d lost (not queued, running or finished)", events, i)
		}
		if !j.running {
			continue
		}
		runningByID[int32(i)] = true
		if j.p == nil {
			t.Fatalf("event %d: running job %d has no placement", events, i)
		}
		ownedByRunning += j.p.U() * j.p.V()
		for _, r := range j.p.Rows {
			for _, c := range j.p.Cols {
				if o := s.grid.Owner(c, r); o != int32(i) {
					t.Fatalf("event %d: board (%d,%d) owner %d, want running job %d (failed boards must never be owned)",
						events, c, r, o, i)
				}
			}
		}
	}
	allocated := 0
	for by := 0; by < y; by++ {
		for bx := 0; bx < x; bx++ {
			if o := s.grid.Owner(bx, by); o >= 0 {
				allocated++
				if !runningByID[o] {
					t.Fatalf("event %d: board (%d,%d) owned by non-running job %d", events, bx, by, o)
				}
			}
		}
	}
	if allocated != ownedByRunning {
		t.Fatalf("event %d: %d boards owned, running placements cover %d", events, allocated, ownedByRunning)
	}
	// Capacity: allocations never exceed the working (non-failed) boards,
	// which never exceed the grid.
	if w := s.grid.WorkingBoards(); allocated > w || w > x*y {
		t.Fatalf("event %d: allocated %d, working %d, capacity %d", events, allocated, w, x*y)
	}

	// Queue consistency: queued flags match the queue, no duplicates.
	inQueue := make(map[int32]bool, len(s.queue))
	for _, idx := range s.queue {
		if inQueue[idx] {
			t.Fatalf("event %d: job %d queued twice", events, idx)
		}
		inQueue[idx] = true
		if j := &s.jobs[idx]; !j.queued || j.running || j.finished {
			t.Fatalf("event %d: queue holds job %d with queued=%v running=%v finished=%v",
				events, idx, j.queued, j.running, j.finished)
		}
	}
	for i := range s.jobs {
		if s.jobs[i].queued && !inQueue[int32(i)] {
			t.Fatalf("event %d: job %d marked queued but not in queue", events, i)
		}
	}

	// Reservation disjointness: a reserved board is either free or held by
	// a job that releases it no later than the reservation start — a
	// placement that would outlive the reservation never overlaps it.
	if s.resJob >= 0 {
		for bi, reserved := range s.resBoards {
			if !reserved {
				continue
			}
			bx, by := bi%x, bi/x
			o := s.grid.Owner(bx, by)
			switch {
			case o == alloc.Free:
			case o == alloc.Failed:
				t.Fatalf("event %d: reservation for job %d covers failed board (%d,%d)", events, s.resJob, bx, by)
			default:
				if ct := s.jobs[o].completeT; ct > s.resTime+1e-9 {
					t.Fatalf("event %d: reservation at t=%.4f overlaps job %d completing at %.4f on board (%d,%d)",
						events, s.resTime, o, ct, bx, by)
				}
			}
		}
	}

	// Work accounting: useful work accrues only on allocated boards at
	// ideal rate or slower, so the running integrals keep goodput under
	// utilization.
	if s.usefulH > s.allocH+1e-6 {
		t.Fatalf("event %d: useful %.6f board-hours above allocated %.6f", events, s.usefulH, s.allocH)
	}
}
