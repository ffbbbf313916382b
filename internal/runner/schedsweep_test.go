package runner

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hammingmesh/internal/sched"
)

func schedSweepTestConfig() SchedSweepConfig {
	return SchedSweepConfig{
		Trace:        sched.TraceConfig{Jobs: 150, ArrivalRate: 4, MeanService: 3, MaxBoards: 12, CommFrac: 0.3},
		Base:         sched.Config{HorizonH: 60, RepairH: 10},
		MTBFs:        []float64{0, 120, 40, 12},
		CheckpointsH: []float64{2},
		Policies:     []sched.Policy{sched.FirstFit, sched.BestFit},
		Trials:       6,
		Seed:         42,
	}
}

// A horizon that is not finite and positive is refused before any trial
// runs: +Inf would never terminate and NaN would run no jobs.
func TestSchedSweepRejectsBadHorizon(t *testing.T) {
	pool := NewSeeded(1, 1)
	c, err := pool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		cfg := schedSweepTestConfig()
		cfg.Base.HorizonH = h
		if _, err := pool.SchedSweep(c, cfg); err == nil || !strings.Contains(err.Error(), "HorizonH") {
			t.Fatalf("HorizonH %v: got error %v, want a HorizonH error", h, err)
		}
	}
}

// The acceptance property of the scheduler subsystem: the utilization-vs-
// MTBF curve (goodput — checkpoint-surviving work per raw board-hour) is
// monotone non-increasing in the failure rate for a fixed checkpoint
// interval and policy. Per-trial failure sets are nested across MTBFs
// (sched.Failures thinning), so the averaged curve measures degradation.
func TestSchedSweepMonotone(t *testing.T) {
	pool := NewSeeded(8, 1)
	c, err := pool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	cfg := schedSweepTestConfig()
	pts, err := pool.SchedSweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perPoint := len(cfg.MTBFs)
	if len(pts) != len(cfg.Policies)*len(cfg.CheckpointsH)*perPoint {
		t.Fatalf("got %d points, want %d", len(pts), len(cfg.Policies)*len(cfg.CheckpointsH)*perPoint)
	}
	for g := 0; g+perPoint <= len(pts); g += perPoint {
		group := pts[g : g+perPoint]
		for i, pt := range group {
			t.Logf("%-9s ckpt=%g mtbf=%5g: goodput %.4f (min %.4f) util %.4f lost %.4f evict %.1f",
				pt.Policy, pt.CheckpointH, pt.MTBFh, pt.Goodput, pt.MinGoodput, pt.Utilization, pt.LostFrac, pt.Evictions)
			if pt.Trials != cfg.Trials {
				t.Fatalf("point %d has %d trials, want %d", g+i, pt.Trials, cfg.Trials)
			}
			if i == 0 {
				// The MTBF list starts failure-free: no evictions, no loss.
				if pt.MTBFh != 0 || pt.Evictions != 0 || pt.LostFrac != 0 {
					t.Fatalf("zero-failure point: mtbf %g evictions %g lost %g", pt.MTBFh, pt.Evictions, pt.LostFrac)
				}
				continue
			}
			if pt.Goodput > group[i-1].Goodput+1e-12 {
				t.Fatalf("%s ckpt=%g: goodput increased with failure rate: %.6f @mtbf=%g -> %.6f @mtbf=%g",
					pt.Policy, pt.CheckpointH, group[i-1].Goodput, group[i-1].MTBFh, pt.Goodput, pt.MTBFh)
			}
			if pt.Evictions < group[i-1].Evictions {
				t.Fatalf("%s ckpt=%g: evictions decreased with failure rate", pt.Policy, pt.CheckpointH)
			}
		}
	}
}

// Sweep results are independent of the worker count (the repo-wide runner
// invariant): a serial pool and a parallel pool produce identical points,
// including across the scheduler-v2 reservation × burst × defrag axes.
func TestSchedSweepWorkerCountInvariant(t *testing.T) {
	cfg := schedSweepTestConfig()
	cfg.Trace.Jobs = 60
	cfg.MTBFs = []float64{0, 30}
	cfg.Trials = 2
	cfg.Policies = []sched.Policy{sched.FragAware}
	cfg.Reservations = []bool{false, true}
	cfg.BurstRates = []float64{0, 0.05}
	cfg.Burst = sched.BurstShape{W: 2, H: 1}
	cfg.DefragThresholds = []float64{0, 0.35}
	cfg.Base.DefragCostH = 0.1
	// All v3 features on (single-valued axes, so the point count stays 16):
	// worker invariance must hold with the shared contention model's memo
	// being filled concurrently.
	cfg.Trace.ElasticFrac = 0.4
	cfg.Trace.PriorityFrac = 0.3
	cfg.Base.Slowdown = &sched.CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2}
	cfg.Base.Interference = &sched.Interference{GroupBoards: 2, Taper: 0.25}
	cfg.Interferences = []bool{true}
	cfg.Elastics = []bool{true}
	cfg.Preempts = []bool{true}

	serialPool := NewSeeded(1, 1)
	c, err := serialPool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialPool.SchedSweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := 1 * 1 * 2 * 2 * 2 * 2 // policy x ckpt x res x defrag x burst x mtbf
	if len(serial) != wantPoints {
		t.Fatalf("got %d points, want %d", len(serial), wantPoints)
	}
	parallelPool := NewSeeded(8, 999) // different base seed: must not matter
	c2, err := parallelPool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := parallelPool.SchedSweep(c2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sweep depends on pool shape:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// The new axes behave across a sweep: bursts only degrade goodput within a
// (policy, checkpoint, reservation, defrag) group at fixed MTBF (nested
// burst sets), and zero-valued axes reproduce the pre-v2 sweep points
// exactly.
func TestSchedSweepBurstAxisMonotoneAndInert(t *testing.T) {
	pool := NewSeeded(8, 1)
	c, err := pool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	base := schedSweepTestConfig()
	base.MTBFs = []float64{0}
	base.Policies = []sched.Policy{sched.BestFit}
	base.Trials = 4

	// Pre-v2 shape: no new axes set.
	old, err := pool.SchedSweep(c, base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.BurstRates = []float64{0, 0.02, 0.1}
	cfg.Burst = sched.BurstShape{W: 3, H: 1}
	pts, err := pool.SchedSweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	// The zero-burst point must match the pre-v2 sweep bit for bit.
	if !reflect.DeepEqual(old[0], pts[0]) {
		t.Fatalf("zero-burst point differs from pre-v2 sweep:\nold %+v\nnew %+v", old[0], pts[0])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].BurstRate <= pts[i-1].BurstRate {
			t.Fatalf("burst axis out of order at %d", i)
		}
		if pts[i].Goodput > pts[i-1].Goodput+1e-12 {
			t.Fatalf("goodput increased with burst rate: %.6f @%g -> %.6f @%g",
				pts[i-1].Goodput, pts[i-1].BurstRate, pts[i].Goodput, pts[i].BurstRate)
		}
		if pts[i].Evictions < pts[i-1].Evictions {
			t.Fatalf("evictions decreased with burst rate")
		}
	}

	// Reservations bound the large-job wait on the same trace.
	cfg = base
	cfg.Trace.Jobs = 120
	cfg.Trace.ArrivalRate = 6
	cfg.Reservations = []bool{false, true}
	pts, err = pool.SchedSweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Reservation || !pts[1].Reservation {
		t.Fatalf("reservation axis malformed: %+v", pts)
	}
	if pts[1].MaxWaitLarge >= pts[0].MaxWaitLarge {
		t.Fatalf("reservation max large-job wait %.2fh not below greedy %.2fh",
			pts[1].MaxWaitLarge, pts[0].MaxWaitLarge)
	}
}

// The scheduler-v3 axes behave across a sweep: the all-off point reproduces
// a sweep without the axes bit for bit (even on a trace carrying elastic
// and priority marks, which off-config runs must ignore), and the all-on
// point shows contention and elastic activity and lands on different
// headline metrics.
func TestSchedSweepContentionElasticAxes(t *testing.T) {
	pool := NewSeeded(8, 1)
	c, err := pool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	base := schedSweepTestConfig()
	base.MTBFs = []float64{0}
	base.Policies = []sched.Policy{sched.BestFit}
	base.Trials = 2
	base.Trace = sched.TraceConfig{
		Jobs: 120, ArrivalRate: 8, MeanService: 5, MaxBoards: 12,
		CommFrac: 0.6, ElasticFrac: 0.5, PriorityFrac: 0.3,
	}
	base.Base.Slowdown = &sched.CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2}

	old, err := pool.SchedSweep(c, base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Base.Interference = &sched.Interference{GroupBoards: 2, Taper: 0.25}
	cfg.Interferences = []bool{false, true}
	cfg.Elastics = []bool{false, true}
	cfg.Preempts = []bool{false, true}
	pts, err := pool.SchedSweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	if !reflect.DeepEqual(old[0], pts[0]) {
		t.Fatalf("all-off point differs from pre-v3 sweep:\nold %+v\nnew %+v", old[0], pts[0])
	}
	var off, on *SchedPoint
	for i := range pts {
		switch {
		case !pts[i].Interference && !pts[i].Elastic && !pts[i].Preempt:
			off = &pts[i]
		case pts[i].Interference && pts[i].Elastic && pts[i].Preempt:
			on = &pts[i]
		}
	}
	if off == nil || on == nil {
		t.Fatal("missing all-off or all-on point")
	}
	if off.Restretches != 0 || off.Shrinks != 0 || off.Regrows != 0 || off.Preemptions != 0 {
		t.Fatalf("all-off point has v3 activity: %+v", off)
	}
	if on.Restretches == 0 || on.Shrinks == 0 {
		t.Fatalf("all-on point inert: restretch=%g shrink=%g regrow=%g preempt=%g",
			on.Restretches, on.Shrinks, on.Regrows, on.Preemptions)
	}
	if on.Goodput == off.Goodput && on.SlowP99 == off.SlowP99 {
		t.Fatal("v3 features moved neither goodput nor SlowP99")
	}
}
