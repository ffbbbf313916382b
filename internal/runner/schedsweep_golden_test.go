package runner

import (
	"fmt"
	"hash/fnv"
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/sched"
)

// TestSchedSweepContentionBits pins every SchedPoint of the contention
// sweep hxbench's sched-contention workload runs through hxalloc (8x8
// Hx2Mesh, 2-board switch groups, 0.25 taper, reservation x interference x
// elastic axes, six trials): %#v of each point, so every float64 at full
// precision. Six trials matter: at two, a change to the tolerance of the
// weighted water-fill behind joint contention pricing left the points
// unchanged. Update the constant only for deliberate semantic changes.
func TestSchedSweepContentionBits(t *testing.T) {
	const group, taper = 2, 0.25
	cfg := SchedSweepConfig{
		Trace: sched.TraceConfig{
			Jobs: 100, ArrivalRate: 8, MeanService: 5, AccelsPerBoard: 4, MaxBoards: 64,
			CommFrac: 0.6, ElasticFrac: 0.3,
		},
		Base: sched.Config{
			HorizonH: 30, RepairH: 10, DefragCostH: 0.1,
			Slowdown:     &sched.CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: group},
			Interference: &sched.Interference{BoardA: 2, BoardB: 2, GroupBoards: group, Taper: taper},
		},
		MTBFs:            []float64{0, 40},
		CheckpointsH:     []float64{2},
		Policies:         []sched.Policy{sched.FirstFit, sched.BestFit, sched.FragAware},
		Reservations:     []bool{false, true},
		BurstRates:       []float64{0},
		Burst:            sched.BurstShape{W: 4, H: 1},
		DefragThresholds: []float64{0},
		Interferences:    []bool{false, true},
		Elastics:         []bool{false, true},
		Preempts:         []bool{false},
		Trials:           6,
		Seed:             1,
	}
	pts, err := NewSeeded(2, 1).SchedSweep(core.NewHxMesh(2, 2, 8, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 48 {
		t.Fatalf("got %d points, want 48", len(pts))
	}
	h := fnv.New64a()
	for _, pt := range pts {
		fmt.Fprintf(h, "%#v\n", pt)
	}
	const want = 0x96b7614dc78cdc70
	if got := h.Sum64(); got != want {
		t.Fatalf("sweep point hash %#016x, want %#016x", got, uint64(want))
	}
}
