package runner

import (
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/sched"
)

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
	// hxalloc -mode sched -grid 8x8 -jobs 120 -horizon 40 -ckpt 2 -trials 1,
	// with -mtbf and -policies set per case.
	runAll := DefaultSchedSpec()
	runAll.Jobs, runAll.HorizonH, runAll.CkptsH, runAll.Trials = 120, 40, []float64{2}, 1
	runAll.MTBFs = []float64{0, 120, 40, 12}
	contention := runAll
	contention.MTBFs, contention.Policies = []float64{0, 40}, []sched.Policy{sched.BestFit}
	contention.ArrivalPerH, contention.ServiceH, contention.CommFrac = 8, 5, 0.6
	contention.SwitchGroup, contention.Taper = 2, 0.25
	contention.Interferences = []bool{false, true}
	contention.Elastics = []bool{false, true}
	contention.Preempts = []bool{false, true}

	for _, tc := range []struct {
		name string
		cfg  SchedSweepConfig
		mi   int // index of the first positive MTBF
	}{
		{"run_all", runAll.Config(c), 1},
		{"contention", contention.Config(c), 1},
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

// TestSchedSpecFingerprintPinned pins the checkpoint fingerprint of
// tools/run_all.sh's scheduler grid (hxalloc -mode sched -grid 8x8 -jobs
// 120 -horizon 40 -mtbf 0,120,40,12 -ckpt 2 -policies
// firstfit,bestfit,fragaware -trials 3), so journals an older hxalloc
// wrote on that grid keep resuming. Update it only for a deliberate change
// of the sweep's meaning, which must refuse old journals.
func TestSchedSpecFingerprintPinned(t *testing.T) {
	s := DefaultSchedSpec()
	s.Jobs, s.HorizonH, s.MTBFs, s.CkptsH, s.Trials = 120, 40, []float64{0, 120, 40, 12}, []float64{2}, 3
	const want = "24eb1c77db0811ff80706bac072cbf7f6b7dab9f4d43ad3527c577a3fc1c38c4"
	c := core.NewHxMesh(2, 2, 8, 8)
	if got := s.Config(c).Fingerprint(c); got != want {
		t.Fatalf("fingerprint %s, want %s", got, want)
	}
}
