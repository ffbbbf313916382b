package sched

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// The golden trace test: a seeded 50-job trace on a 4x4 grid with a
// seeded MTBF-30h failure process replays an exact decision sequence —
// every placement (rows, columns, slowdown), eviction (lost work), repair
// and completion. Any change to trace synthesis, the failure process, the
// allocator's candidate order, the slowdown model or the event loop's
// tie-breaking shows up here. Update the constants only for deliberate
// semantic changes, never to quiet a diff you cannot explain.
func TestGoldenTrace(t *testing.T) {
	trace := Synthetic(TraceConfig{Jobs: 50, ArrivalRate: 4, MeanService: 3, MaxBoards: 12, CommFrac: 0.3}, 2024)
	if len(trace) != 50 {
		t.Fatalf("trace has %d jobs, want 50", len(trace))
	}
	fails := mtbfFailures(4, 4, 40, 30, 9)
	if len(fails) != 18 {
		t.Fatalf("failure process has %d events, want 18", len(fails))
	}
	m, err := Run(4, 4, trace, fails, Config{
		Policy: BestFit, CheckpointH: 2, RepairH: 10, HorizonH: 40,
		Slowdown: NewCommSlowdown(2, 2), RecordDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	wantHead := []string{
		"t=0.0868 arrive job=0 boards=2 service=2.1193",
		"t=0.0868 place job=0 shape=1x2 rows=[0] cols=[0 1] slow=1.8400 remaining=2.1193",
		"t=0.7602 fail board=(3,0)",
		"t=1.0219 arrive job=1 boards=1 service=1.4784",
		"t=1.0219 place job=1 shape=1x1 rows=[0] cols=[2] slow=1.0000 remaining=1.4784",
		"t=1.2748 arrive job=2 boards=1 service=1.7835",
		"t=1.2748 place job=2 shape=1x1 rows=[1] cols=[0] slow=1.0000 remaining=1.7835",
		"t=2.0267 arrive job=3 boards=8 service=1.3524",
		"t=2.0267 place job=3 shape=2x4 rows=[2 3] cols=[0 1 2 3] slow=2.0039 remaining=1.3524",
		"t=2.0673 fail board=(1,0) evict=0 lost=1.0764h",
		"t=2.0673 place job=0 shape=1x2 rows=[1] cols=[1 2] slow=1.8400 remaining=2.1193",
		"t=2.0897 arrive job=4 boards=1 service=1.4770",
	}
	if len(m.Decisions) != 190 {
		t.Fatalf("got %d decisions, want 190", len(m.Decisions))
	}
	for i, want := range wantHead {
		if m.Decisions[i] != want {
			t.Fatalf("decision %d:\n got %q\nwant %q", i, m.Decisions[i], want)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(m.Decisions, "\n")))
	if got := h.Sum64(); got != 0xd6ec176b702449fb {
		t.Fatalf("decision log hash %#016x, want 0xd6ec176b702449fb", got)
	}

	gotMetrics := fmt.Sprintf("util=%.9f goodput=%.9f lost=%.9f waitP50=%.9f waitP99=%.9f slowP50=%.9f slowP99=%.9f",
		m.Utilization, m.Goodput, m.LostBoardH, m.WaitP50, m.WaitP99, m.SlowP50, m.SlowP99)
	wantMetrics := "util=0.636863720 goodput=0.244173453 lost=26.136030137 waitP50=0.785393366 waitP99=6.665605476 slowP50=1.530314587 slowP99=5.737136805"
	if gotMetrics != wantMetrics {
		t.Fatalf("metrics:\n got %s\nwant %s", gotMetrics, wantMetrics)
	}
	gotCounts := fmt.Sprintf("arrived=%d completed=%d evictions=%d rejected=%d backlog=%d failures=%d repairs=%d",
		m.Arrived, m.Completed, m.Evictions, m.Rejected, m.Backlog, m.Failures, m.Repairs)
	wantCounts := "arrived=50 completed=46 evictions=14 rejected=0 backlog=4 failures=18 repairs=15"
	if gotCounts != wantCounts {
		t.Fatalf("counts:\n got %s\nwant %s", gotCounts, wantCounts)
	}
}
