package sched

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// The scheduler-v2 golden trace: the same seeded 50-job trace and
// independent MTBF-30h failure process as TestGoldenTrace, plus a seeded
// 2x1-rack burst process, EASY reservations and threshold-triggered
// defragmentation. The run replays an exact 337-decision sequence —
// correlated burst failures, reservations, backfill admissions, defrag
// migrations — on top of the PR 3 machinery. TestGoldenTrace (unchanged)
// pins the complementary guarantee: with bursts, reservation and defrag
// all off, the decision log is bit-identical to the pre-v2 scheduler.
// Update the constants only for deliberate semantic changes, never to
// quiet a diff you cannot explain.
func TestGoldenBurstDefragReservationTrace(t *testing.T) {
	trace := Synthetic(TraceConfig{Jobs: 50, ArrivalRate: 4, MeanService: 3, MaxBoards: 12, CommFrac: 0.3}, 2024)
	ind := mtbfFailures(4, 4, 40, 30, 9)
	bursts := NewBursts(4, 4, BurstShape{W: 2, H: 1}, 40, 0.08, 9)
	if bursts.Sampled() != 3 {
		t.Fatalf("burst process sampled %d bursts, want 3", bursts.Sampled())
	}
	burstEvents := bursts.Thin(0.08)
	if len(burstEvents) != 5 {
		t.Fatalf("bursts expand to %d board failures, want 5 (clipped regions)", len(burstEvents))
	}
	fails := MergeFailures(ind, burstEvents)

	m, err := Run(4, 4, trace, fails, Config{
		Policy: BestFit, CheckpointH: 2, RepairH: 10, HorizonH: 40,
		Slowdown: NewCommSlowdown(2, 2), Reservation: true,
		DefragThreshold: 0.25, DefragCostH: 0.05, RecordDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The head of the log: the first burst kills boards (0,0) and (1,0)
	// at one instant, before any job arrives.
	wantHead := []string{
		"t=0.0225 fail board=(0,0)",
		"t=0.0225 fail board=(1,0)",
		"t=0.0868 arrive job=0 boards=2 service=2.1193",
		"t=0.0868 place job=0 shape=1x2 rows=[0] cols=[2 3] slow=1.8400 remaining=2.1193",
		"t=0.7602 fail board=(3,0) evict=0 lost=0.3660h",
		"t=0.7602 place job=0 shape=1x2 rows=[1] cols=[0 1] slow=1.8400 remaining=2.1193",
		"t=1.0219 arrive job=1 boards=1 service=1.4784",
		"t=1.0219 place job=1 shape=1x1 rows=[0] cols=[2] slow=1.0000 remaining=1.4784",
		"t=1.2748 arrive job=2 boards=1 service=1.7835",
		"t=1.2748 place job=2 shape=1x1 rows=[1] cols=[2] slow=1.0000 remaining=1.7835",
		"t=2.0267 arrive job=3 boards=8 service=1.3524",
		"t=2.0267 place job=3 shape=2x4 rows=[2 3] cols=[0 1 2 3] slow=2.0039 remaining=1.3524",
	}
	if len(m.Decisions) != 337 {
		t.Fatalf("got %d decisions, want 337", len(m.Decisions))
	}
	for i, want := range wantHead {
		if m.Decisions[i] != want {
			t.Fatalf("decision %d:\n got %q\nwant %q", i, m.Decisions[i], want)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(m.Decisions, "\n")))
	if got := h.Sum64(); got != 0x4742dd8a9164c18e {
		t.Fatalf("decision log hash %#016x, want 0x4742dd8a9164c18e", got)
	}

	gotMetrics := fmt.Sprintf("util=%.9f goodput=%.9f lost=%.9f migrated=%.9f maxWaitLarge=%.9f",
		m.Utilization, m.Goodput, m.LostBoardH, m.MigratedBoardH, m.MaxWaitLarge)
	wantMetrics := "util=0.841675040 goodput=0.143139286 lost=138.996734846 migrated=7.550000000 maxWaitLarge=36.242123852"
	if gotMetrics != wantMetrics {
		t.Fatalf("metrics:\n got %s\nwant %s", gotMetrics, wantMetrics)
	}
	gotCounts := fmt.Sprintf("arrived=%d completed=%d evictions=%d reservations=%d backfills=%d defrags=%d migrations=%d failures=%d repairs=%d",
		m.Arrived, m.Completed, m.Evictions, m.Reservations, m.Backfills, m.Defrags, m.Migrations, m.Failures, m.Repairs)
	wantCounts := "arrived=50 completed=39 evictions=17 reservations=45 backfills=8 defrags=18 migrations=83 failures=22 repairs=19"
	if gotCounts != wantCounts {
		t.Fatalf("counts:\n got %s\nwant %s", gotCounts, wantCounts)
	}
}
