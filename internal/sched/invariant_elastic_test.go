package sched

import (
	"fmt"
	"testing"
)

// The v3 companion to TestInvariantsUnderAllPolicyCombos: the same global
// invariants are checked after every event under the contention-pricing,
// elastic and preemption features, alone and combined, on a trace with
// elastic and priority marks and a failure process that exercises both the
// failure-trim and eviction paths.
func TestInvariantsUnderContentionElasticCombos(t *testing.T) {
	const x, y = 6, 6
	const horizon = 150.0
	trace := Synthetic(TraceConfig{
		Jobs: 450, ArrivalRate: 3, MeanService: 2.5, MaxBoards: 24,
		CommFrac: 0.4, ElasticFrac: 0.4, PriorityFrac: 0.3,
	}, 77)
	fails := mtbfFailures(x, y, horizon, 8, 5)

	combos := []struct {
		name                       string
		interference, elastic, pre bool
	}{
		{"interference", true, false, false},
		{"elastic", false, true, false},
		{"preempt", false, false, true},
		{"all", true, true, true},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Policy: BestFit, CheckpointH: 1.5, RepairH: 6, HorizonH: horizon,
				Reservation: true,
				Elastic:     c.elastic,
				Preempt:     c.pre,
				Slowdown:    &CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2},
			}
			if c.interference {
				cfg.Interference = &Interference{GroupBoards: 2, Taper: 0.25}
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
			if events < 2000 {
				t.Fatalf("processed %d events, want ≥ 2000 (grow the trace)", events)
			}
			if m.Goodput > m.Utilization+1e-9 || m.GoodputUtil > m.Utilization+1e-9 {
				t.Fatalf("goodput %.6f / goodput-util %.6f above utilization %.6f",
					m.Goodput, m.GoodputUtil, m.Utilization)
			}
			if !c.interference && m.Restretches != 0 {
				t.Fatalf("interference off but restretched %d times", m.Restretches)
			}
			if !c.elastic && (m.Shrinks != 0 || m.Regrows != 0) {
				t.Fatalf("elastic off but shrank %d / regrew %d times", m.Shrinks, m.Regrows)
			}
			if !c.pre && m.Preemptions != 0 {
				t.Fatalf("preempt off but preempted %d times", m.Preemptions)
			}
			summary := fmt.Sprintf("restretch=%d shrink=%d regrow=%d preempt=%d", m.Restretches, m.Shrinks, m.Regrows, m.Preemptions)
			switch {
			case c.interference && m.Restretches == 0:
				t.Fatalf("interference on but inert (%s); tune the trace", summary)
			case c.elastic && m.Shrinks == 0:
				t.Fatalf("elastic on but inert (%s); tune the trace", summary)
			case c.pre && m.Preemptions == 0:
				t.Fatalf("preempt on but inert (%s); tune the trace", summary)
			}
		})
	}
}
