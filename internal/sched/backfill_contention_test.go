package sched

import "testing"

// TestBackfillConformanceUnderContention pins the satellite fix in
// tryBackfill: the finish estimate behind "admit only if it finishes before
// the reservation starts" must use the contention-priced slowdown, not the
// isolation price. The conformance check is the EASY invariant itself,
// asserted after every event of a contention-heavy run with reservations
// on: a board reserved for the blocked head job is only ever held by jobs
// whose (contention-priced, possibly re-stretched) completion lands at or
// before the reservation start. An optimistic isolation estimate would
// admit a stretched backfill that holds reserved boards past resTime.
//
// The run also pins its exact contention-pricing work. A backfill late
// even at the isolation price is refused without a joint solve, an
// admission is priced once, and a pass that leaves the grid as it was
// does not reprice, so any pricing added on those paths moves the counts.
func TestBackfillConformanceUnderContention(t *testing.T) {
	trace := goldenV3Trace()
	inf := &Interference{GroupBoards: 2, Taper: 0.25}
	cfg := goldenV3Config(inf)
	cfg.RecordDecisions = false
	cfg.Reservation = true
	violations := 0
	cfg.observer = func(s *sim, ev event) {
		if s.resJob < 0 {
			return
		}
		x := s.grid.X
		for bi, reserved := range s.resBoards {
			if !reserved {
				continue
			}
			bx, by := bi%x, bi/x
			o := s.grid.Owner(bx, by)
			if o < 0 {
				continue
			}
			if ct := s.jobs[o].completeT; ct > s.resTime+1e-9 {
				violations++
				t.Errorf("reservation at t=%.4f overlaps job %d completing at %.4f on board (%d,%d)",
					s.resTime, o, ct, bx, by)
			}
		}
	}
	m, err := Run(8, 8, trace, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d reservation-delay violations", violations)
	}
	// The run must actually exercise the guarded path: reservations were
	// created, jobs backfilled behind them, and contention re-stretched
	// running jobs while reservations could be live.
	if m.Reservations == 0 || m.Backfills == 0 || m.Restretches == 0 {
		t.Fatalf("degenerate run: reservations=%d backfills=%d restretches=%d",
			m.Reservations, m.Backfills, m.Restretches)
	}
	if got, want := inf.Stats(), (InterferenceStats{Solves: 96, MemoHits: 65}); got != want {
		t.Fatalf("contention pricing: %+v, want %+v", got, want)
	}
}
