package runner

import (
	"math"
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/flowsim"
)

// TestAlltoallFlowShareWorkerInvariance pins the pooled flow sweep's
// determinism contract: the share is bit-identical for 1, 4 and 8 workers,
// on the pristine and on a degraded fabric.
func TestAlltoallFlowShareWorkerInvariance(t *testing.T) {
	base, err := core.NewByName("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	degraded := base.WithFaults(base.SampleLinkFaults(0.1, 5))
	for _, tc := range []struct {
		name string
		c    *core.Cluster
	}{{"pristine", base}, {"degraded", degraded}} {
		var want float64
		for i, workers := range []int{1, 4, 8} {
			pool := NewSeeded(workers, 3)
			got, err := pool.AlltoallFlowShare(tc.c, tc.c.FlowConfig(9), 6, 9)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if got <= 0 || got > 1 {
				t.Fatalf("%s workers=%d: share %v outside (0,1]", tc.name, workers, got)
			}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: share with %d workers = %v, want %v (1 worker)", tc.name, workers, got, want)
			}
		}
	}
}

// TestAlltoallFlowShareTracksSerial sanity-checks the pooled estimator
// against flowsim's serial AlltoallShareOver (sched's pinned shape
// solver): same shift sequence and aggregation, so the two must agree
// closely (they are not bit-identical — the serial solver's parallel-link
// round-robin cursors carry across shifts).
func TestAlltoallFlowShareTracksSerial(t *testing.T) {
	c, err := core.NewByName("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewSeeded(4, 3).AlltoallFlowShare(c, c.FlowConfig(9), 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := flowsim.New(c.Comp, c.Table, c.FlowConfig(9)).
		AlltoallShareOver(c.AliveEndpoints(), 6, c.SimInjectionGBps(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pooled-serial) > 0.15*serial {
		t.Errorf("pooled share %v vs serial %v differ >15%%", pooled, serial)
	}
}
