package runner

import (
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/sched"
)

// hxallocSchedConfig is the sweep `hxalloc -mode sched -grid 8x8 -jobs
// 120 -horizon 40 -ckpt 2 -trials 1` builds on its 2x2-board Hx2Mesh,
// with the flags a test does not override at their defaults.
func hxallocSchedConfig(mtbfs []float64, policies ...sched.Policy) SchedSweepConfig {
	return SchedSweepConfig{
		Trace: sched.TraceConfig{Jobs: 120, ArrivalRate: 4, MeanService: 3,
			AccelsPerBoard: 4, MaxBoards: 64, CommFrac: 0.3},
		Base: sched.Config{HorizonH: 40, RepairH: 10, DefragCostH: 0.1,
			Slowdown: &sched.CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 16}},
		MTBFs:            mtbfs,
		CheckpointsH:     []float64{2},
		Policies:         policies,
		Reservations:     []bool{false},
		BurstRates:       []float64{0},
		Burst:            sched.BurstShape{W: 4, H: 1},
		DefragThresholds: []float64{0},
		Interferences:    []bool{false},
		Elastics:         []bool{false},
		Preempts:         []bool{false},
		Trials:           1,
		Seed:             1,
	}
}

// TestSchedTraceReplaysScoredPoint pins hxalloc -trace-out to a run the
// sweep scored: with one trial a point's means are that trial's metrics
// exactly, so the traced run must reproduce the point with every axis at
// its first value and the first positive MTBF bit for bit. The two
// configurations are tools/run_all.sh's scheduler grid, whose failure
// process the sweep samples at the smallest positive MTBF and thins, and
// the CI smoke's contention grid, whose first point prices no contention
// even though the interference axis sweeps on.
func TestSchedTraceReplaysScoredPoint(t *testing.T) {
	c := core.NewHxMesh(2, 2, 8, 8)
	contention := hxallocSchedConfig([]float64{0, 40}, sched.BestFit)
	contention.Trace.ArrivalRate, contention.Trace.MeanService, contention.Trace.CommFrac = 8, 5, 0.6
	contention.Trace.ElasticFrac, contention.Trace.PriorityFrac = 0.3, 0.2
	contention.Base.Slowdown = &sched.CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2}
	contention.Base.Interference = &sched.Interference{BoardA: 2, BoardB: 2, GroupBoards: 2, Taper: 0.25}
	contention.Interferences = []bool{false, true}
	contention.Elastics = []bool{false, true}
	contention.Preempts = []bool{false, true}

	for _, tc := range []struct {
		name string
		cfg  SchedSweepConfig
		mi   int // index of the first positive MTBF
	}{
		{"run_all", hxallocSchedConfig([]float64{0, 120, 40, 12}, sched.FirstFit, sched.BestFit, sched.FragAware), 1},
		{"contention", contention, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts, err := NewSeeded(2, 1).SchedSweep(c, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder(0)
			m, err := SchedTraceRun(c, tc.cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Len() == 0 {
				t.Fatal("traced run recorded no events")
			}
			// Every axis but MTBF sits at its first value, and MTBF is the
			// innermost axis, so the traced point's index is its MTBF index.
			want := pts[tc.mi]
			got := want
			got.Goodput, got.MinGoodput = m.Goodput, m.Goodput
			got.Utilization, got.LostFrac = m.Utilization, m.LostFrac
			got.WaitP50, got.WaitP99 = m.WaitP50, m.WaitP99
			got.SlowP50, got.SlowP99 = m.SlowP50, m.SlowP99
			got.Completed, got.Evictions = float64(m.Completed), float64(m.Evictions)
			got.MaxWaitLarge = m.MaxWaitLarge
			got.Defrags, got.Migrations = float64(m.Defrags), float64(m.Migrations)
			got.Restretches, got.Preemptions = float64(m.Restretches), float64(m.Preemptions)
			got.Shrinks, got.Regrows = float64(m.Shrinks), float64(m.Regrows)
			if got != want {
				t.Fatalf("traced run (%d failures) is not the scored point:\n got  %+v\n want %+v", m.Failures, got, want)
			}
			t.Logf("mtbf %g: %d failures, %d evictions, %d restretches, goodput %.4f, SlowP99 %.2f",
				want.MTBFh, m.Failures, m.Evictions, m.Restretches, m.Goodput, m.SlowP99)
		})
	}
}
