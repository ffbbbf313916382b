package runner

import (
	"strings"
	"testing"

	"hammingmesh/internal/netsim"
)

// The acceptance property of the resilience subsystem: delivered alltoall
// bandwidth over a Table II topology is monotonically non-increasing as the
// link-failure fraction rises (fault sets are nested per trial, so more
// failures can only remove paths), and the zero-fault point matches the
// pristine cluster exactly.
func TestResilienceSweepMonotone(t *testing.T) {
	pool := NewSeeded(4, 1)
	c, err := pool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0, 0.05, 0.10, 0.20}
	pts, err := pool.ResilienceSweep(c, netsim.DefaultConfig(), 32<<10, fracs, 3, 3, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(fracs) {
		t.Fatalf("got %d points, want %d", len(pts), len(fracs))
	}
	for i, pt := range pts {
		t.Logf("frac %.2f: links %.1f share %.4f (min %.4f) makespan %.0f ns",
			pt.FailFrac, pt.FailedLinks, pt.Share, pt.MinShare, pt.Makespan)
		if pt.Trials != 3 {
			t.Fatalf("point %d has %d trials, want 3", i, pt.Trials)
		}
		if i > 0 && pts[i].Share > pts[i-1].Share+1e-9 {
			t.Fatalf("delivered bandwidth increased with more failures: %.6f @%.2f -> %.6f @%.2f",
				pts[i-1].Share, pts[i-1].FailFrac, pts[i].Share, pts[i].FailFrac)
		}
		// Makespan growth is a heuristic, not an invariant: unlike the
		// share (averaged delivered bandwidth), the makespan is the single
		// worst flow, and on near-tied points it jitters below 1% with the
		// engine's canonical event tie-order. Allow that jitter.
		if i > 0 && pt.Makespan < pts[i-1].Makespan*(1-0.01) {
			t.Fatalf("makespan decreased with more failures: %.2f -> %.2f", pts[i-1].Makespan, pt.Makespan)
		}
	}
	if pts[0].FailedLinks != 0 {
		t.Fatalf("zero-fraction point failed %v links", pts[0].FailedLinks)
	}

	// The zero-fault point must be bit-identical to the same sweep run
	// against the pristine cluster directly (fault overlay off).
	jobCfg := netsim.DefaultConfig()
	jobCfg.Seed = JobSeed(jobCfg.Seed, 0)
	eps := c.Comp.Endpoints
	inj := c.SimInjectionGBps()
	sum := 0.0
	shifts := netsim.SampleShifts(len(eps), 3, JobSeed(42, 0)^0x5deece66d)
	for _, shift := range shifts {
		res, err := netsim.New(c.Comp, c.Table, jobCfg).Run(netsim.ShiftFlows(eps, shift, 32<<10))
		if err != nil {
			t.Fatal(err)
		}
		sum += res.AggregateGBps() / float64(len(eps)) / inj
	}
	// Trial 0 of the zero-fraction point ran exactly these shifts; the
	// point aggregates 3 trials, so compare against the recomputed mean of
	// all three.
	want := 0.0
	for tr := 0; tr < 3; tr++ {
		trCfg := netsim.DefaultConfig()
		trCfg.Seed = JobSeed(netsim.DefaultConfig().Seed, tr)
		trSum := 0.0
		trShifts := netsim.SampleShifts(len(eps), 3, JobSeed(42, tr)^0x5deece66d)
		for _, shift := range trShifts {
			res, err := netsim.New(c.Comp, c.Table, trCfg).Run(netsim.ShiftFlows(eps, shift, 32<<10))
			if err != nil {
				t.Fatal(err)
			}
			trSum += res.AggregateGBps() / float64(len(eps)) / inj
		}
		want += trSum / 3 / 3
	}
	if diff := pts[0].Share - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("zero-fault sweep share %.15f != pristine %.15f", pts[0].Share, want)
	}
}

// A sweep whose board failures leave fewer than two endpoints alive has
// nothing to simulate: it returns an error naming the survivors instead of
// sampling shifts among zero endpoints inside a pool job. One surviving
// board is still a sweep.
func TestResilienceSweepNoSurvivors(t *testing.T) {
	pool := New(2)
	c, err := pool.Cluster("hx2mesh", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	boards := c.Hx.Cfg.X * c.Hx.Cfg.Y
	for _, n := range []int{boards, boards + 5} {
		pts, err := pool.ResilienceSweep(c, netsim.DefaultConfig(), 32<<10, []float64{0, 0.1}, 2, 2, 1, n)
		if err == nil || !strings.Contains(err.Error(), "0 of 64 survive") {
			t.Fatalf("%d of %d boards failed: points %v, err %v; want the survivor-count error", n, boards, pts, err)
		}
	}
	if _, err := pool.ResilienceSweep(c, netsim.DefaultConfig(), 32<<10, []float64{0}, 1, 1, 1, boards-1); err != nil {
		t.Fatalf("one surviving board: %v", err)
	}
}
