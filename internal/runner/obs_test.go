package runner

import (
	"strings"
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/sched"
)

// TestPoolObs pins the pool's observability surface: EnableObs wires
// job/latency/cache instruments, sweep drivers propagate the registry
// into the engines, and — the obs contract — sweep results are identical
// with instrumentation on and off.
func TestPoolObs(t *testing.T) {
	base := New(2)
	c, err := base.Cluster("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	cfg := netsim.DefaultConfig()
	want, err := base.AlltoallPacketShare(c, cfg, 16<<10, 2, 7)
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}

	p := New(2)
	reg := obs.NewRegistry()
	p.EnableObs(reg)
	if p.Obs() != reg {
		t.Fatalf("Obs() did not return the installed registry")
	}
	got, err := p.AlltoallPacketShare(c, cfg, 16<<10, 2, 7)
	if err != nil {
		t.Fatalf("instrumented sweep: %v", err)
	}
	if got != want {
		t.Errorf("share with obs = %v, without = %v (must be identical)", got, want)
	}

	if v := reg.Counter("runner_jobs_total", "", "").Value(); v == 0 {
		t.Errorf("runner_jobs_total not recorded")
	}
	if v := reg.Counter("netsim_runs_total", "", "").Value(); v == 0 {
		t.Errorf("engine metrics did not propagate through the sweep")
	}

	// Cache hits: the cluster is already built in p after the first
	// Cluster call below, so the second is a hit.
	if _, err := p.Cluster("hx2mesh", core.Tiny); err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if _, err := p.Cluster("hx2mesh", core.Tiny); err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if v := reg.Counter("runner_cluster_cache_hits_total", "", "").Value(); v == 0 {
		t.Errorf("cluster cache hit not recorded")
	}

	var sb strings.Builder
	reg.Render(&sb)
	for _, series := range []string{"runner_job_seconds_count", "runner_active_jobs", "runner_queued_jobs"} {
		if !strings.Contains(sb.String(), series) {
			t.Errorf("series %s missing from render", series)
		}
	}
}

// TestSchedSweepObs verifies decision counters flow out of a sweep.
func TestSchedSweepObs(t *testing.T) {
	p := New(2)
	reg := obs.NewRegistry()
	p.EnableObs(reg)
	c, err := p.Cluster("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	pts, err := p.SchedSweep(c, SchedSweepConfig{
		Trace:        sched.TraceConfig{Jobs: 12, ArrivalRate: 2, MeanService: 3, MaxBoards: 8},
		Base:         sched.Config{HorizonH: 48},
		MTBFs:        []float64{0},
		CheckpointsH: []float64{0},
		Policies:     []sched.Policy{sched.FirstFit},
		Reservations: []bool{false}, BurstRates: []float64{0}, DefragThresholds: []float64{0},
		Interferences: []bool{false}, Elastics: []bool{false}, Preempts: []bool{false},
		Trials: 1,
		Seed:   3,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(pts) == 0 {
		t.Fatalf("no points")
	}
	if v := reg.Counter("sched_decisions_total", `type="arrived"`, "").Value(); v == 0 {
		t.Errorf("sched decision counters not recorded")
	}
}
