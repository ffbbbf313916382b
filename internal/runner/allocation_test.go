package runner

import (
	"reflect"
	"testing"

	"hammingmesh/internal/workload"
)

// Fig. 8: sorted allocation dominates plain greedy on average.
func TestUtilizationSweepImprovesWithHeuristics(t *testing.T) {
	stacks := []workload.HeuristicStack{
		{Name: "greedy"},
		{Name: "full", Transpose: true, Aspect: true, Sort: true},
	}
	pts := NewSeeded(2, 5).UtilizationSweep(16, 16, 4, 12, 0, stacks)
	greedy, full := pts[0].Utilization, pts[1].Utilization
	if greedy.Mean < 0.5 {
		t.Errorf("greedy mean utilization %.2f unreasonably low", greedy.Mean)
	}
	if full.Mean+1e-9 < greedy.Mean {
		t.Errorf("full heuristics mean %.3f below greedy %.3f", full.Mean, greedy.Mean)
	}
}

// The allocation study is identical for any worker count, with and
// without failed boards, and every stack sees the same mixes.
func TestUtilizationSweepWorkerInvariance(t *testing.T) {
	for _, failures := range []int{0, 10} {
		want := NewSeeded(1, 3).UtilizationSweep(8, 8, 16, 9, failures, workload.Fig8Stacks())
		got := NewSeeded(4, 3).UtilizationSweep(8, 8, 16, 9, failures, workload.Fig8Stacks())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("failures=%d: 4 workers %+v\n differ from 1 worker %+v", failures, got, want)
		}
		if len(want) != len(workload.Fig8Stacks()) || want[0].Stack.Name != "greedy" {
			t.Fatalf("failures=%d: got %d points starting at %q", failures, len(want), want[0].Stack.Name)
		}
	}
}
