package sched

import (
	"reflect"
	"strings"
	"testing"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/faults"
)

func TestSyntheticDeterministicAndSorted(t *testing.T) {
	cfg := TraceConfig{Jobs: 200, ArrivalRate: 3, MeanService: 4, MaxBoards: 32, CommFrac: 0.3}
	a := Synthetic(cfg, 7)
	b := Synthetic(cfg, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (cfg, seed) produced different traces")
	}
	if len(a) != 200 {
		t.Fatalf("got %d jobs, want 200", len(a))
	}
	for i, j := range a {
		if j.ID != int32(i) {
			t.Fatalf("job %d has id %d", i, j.ID)
		}
		if i > 0 && j.Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		if j.Boards < 1 || j.Boards > 32 {
			t.Fatalf("job %d has %d boards outside [1,32]", i, j.Boards)
		}
		if j.Service <= 0 {
			t.Fatalf("job %d has service %g", i, j.Service)
		}
	}
	if c := Synthetic(cfg, 8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestParseTrace's inputs, shared with FuzzParseTrace as seeds.
var (
	jsonTrace = `[
		{"id": 1, "arrival_h": 2.5, "boards": 4, "service_h": 1.5},
		{"id": 0, "arrival_h": 0.5, "boards": 1, "service_h": 3, "comm_frac": 0.4}
	]`
	jsonBadTraces = []string{
		`[{"id": -1, "arrival_h": 0, "boards": 1, "service_h": 1}]`,
		`[{"id": 0, "arrival_h": 0, "boards": 0, "service_h": 1}]`,
		`[{"id": 0, "arrival_h": 0, "boards": 1, "service_h": 0}]`,
		`[{"id": 0, "arrival_h": -1, "boards": 1, "service_h": 1}]`,
		`[{"id": 0, "arrival_h": 0, "boards": 1, "service_h": 1, "comm_frac": 2}]`,
		`[{"id": 0, "arrival_h": 0, "boards": 1, "service_h": 1},
		  {"id": 0, "arrival_h": 1, "boards": 1, "service_h": 1}]`,
		`{"not": "an array"}`,
	}
)

func TestParseTrace(t *testing.T) {
	jobs, err := ParseTrace([]byte(jsonTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != 0 || jobs[1].ID != 1 {
		t.Fatalf("expected arrival-sorted jobs, got %+v", jobs)
	}
	for _, bad := range jsonBadTraces {
		if _, err := ParseTrace([]byte(bad)); err == nil {
			t.Fatalf("trace %s parsed without error", bad)
		}
	}
}

// mtbfFailures is the independent board-failure process the tests replay:
// an x×y grid's seeded board order, failing at per-board MTBF mtbfH over
// [0, horizonH).
func mtbfFailures(x, y int, horizonH, mtbfH float64, seed int64) []FailEvent {
	rate := float64(x*y) / mtbfH
	return NewFailures(faults.BoardOrder(x, y, seed, orderSalt), horizonH, rate, seed).Thin(rate)
}

func TestRunCompletesLightTrace(t *testing.T) {
	trace := Synthetic(TraceConfig{Jobs: 60, ArrivalRate: 1, MeanService: 2, MaxBoards: 16}, 5)
	for _, p := range Policies() {
		m, err := Run(8, 8, trace, nil, Config{Policy: p, HorizonH: 500})
		if err != nil {
			t.Fatal(err)
		}
		if m.Arrived != 60 || m.Completed != 60 || m.Rejected != 0 || m.Backlog != 0 {
			t.Fatalf("%s: arrived %d completed %d rejected %d backlog %d", p, m.Arrived, m.Completed, m.Rejected, m.Backlog)
		}
		if m.Evictions != 0 || m.LostBoardH != 0 {
			t.Fatalf("%s: evictions %d lost %g without failures", p, m.Evictions, m.LostBoardH)
		}
		if m.Utilization <= 0 || m.Utilization > 1 {
			t.Fatalf("%s: utilization %g outside (0,1]", p, m.Utilization)
		}
		if m.Goodput <= 0 || m.Goodput > m.Utilization+1e-12 {
			t.Fatalf("%s: goodput %g outside (0, utilization=%g]", p, m.Goodput, m.Utilization)
		}
		if m.SlowP50 < 1 {
			t.Fatalf("%s: median slowdown %g < 1", p, m.SlowP50)
		}
	}
}

// A full-grid job hit by a board failure mid-run: the work past the last
// checkpoint is lost, the job waits for the repair, restarts and finishes.
// Every number is hand-computable.
func TestEvictCheckpointRestart(t *testing.T) {
	trace := []TraceJob{{ID: 0, Arrival: 0, Boards: 16, Service: 10}}
	fails := []FailEvent{{Time: 5, Board: [2]int{1, 1}}}
	m, err := Run(4, 4, trace, fails, Config{
		Policy: FirstFit, CheckpointH: 2, RepairH: 3, HorizonH: 40, RecordDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// t=0 place (16 boards, slowdown 1); t=5 fail: elapsed 5h, checkpoints
	// at 2h and 4h -> 1h lost, remaining 6h; repair at t=8, restart, done
	// at t=14.
	if m.Completed != 1 || m.Evictions != 1 || m.Failures != 1 || m.Repairs != 1 {
		t.Fatalf("completed %d evictions %d failures %d repairs %d", m.Completed, m.Evictions, m.Failures, m.Repairs)
	}
	if m.LostBoardH != 1*16 {
		t.Fatalf("lost %g board-hours, want 16", m.LostBoardH)
	}
	if m.WaitP50 != 3 {
		t.Fatalf("wait %g hours, want 3 (eviction to repair)", m.WaitP50)
	}
	// Slowdown: finished at 14 over 10h of service.
	if m.SlowP50 != 1.4 {
		t.Fatalf("slowdown %g, want 1.4", m.SlowP50)
	}
	var placed, completed int
	for _, d := range m.Decisions {
		if strings.Contains(d, "place job=0") {
			placed++
		}
		if strings.Contains(d, "complete job=0") {
			completed++
		}
	}
	if placed != 2 || completed != 1 {
		t.Fatalf("decision log: %d placements, %d completions (want 2, 1)\n%s",
			placed, completed, strings.Join(m.Decisions, "\n"))
	}

	// Continuous checkpointing (CheckpointH == 0) loses nothing.
	m2, err := Run(4, 4, trace, fails, Config{Policy: FirstFit, RepairH: 3, HorizonH: 40})
	if err != nil {
		t.Fatal(err)
	}
	if m2.LostBoardH != 0 || m2.Completed != 1 {
		t.Fatalf("continuous checkpointing lost %g board-hours, completed %d", m2.LostBoardH, m2.Completed)
	}
}

// Jobs whose shape cannot fit the grid dimensions are rejected up front
// with the allocator's *ErrNeverFits, not queued forever.
func TestRejectNeverFits(t *testing.T) {
	trace := []TraceJob{
		{ID: 0, Arrival: 0, Boards: 17, Service: 1}, // 17 > 4x4 grid
		{ID: 1, Arrival: 0.5, Boards: 4, Service: 1},
	}
	m, err := Run(4, 4, trace, nil, Config{Policy: BestFit, HorizonH: 10, RecordDecisions: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rejected != 1 || m.Completed != 1 {
		t.Fatalf("rejected %d completed %d, want 1 and 1", m.Rejected, m.Completed)
	}
	if want := "t=0.0000 reject job=0: alloc: job 0 (1x17 boards) can never fit a 4x4 grid"; m.Decisions[1] != want {
		t.Fatalf("decision after the arrival %q, want %q", m.Decisions[1], want)
	}
}

// Runs are deterministic: the same inputs give the same decision log.
func TestRunDeterministic(t *testing.T) {
	trace := Synthetic(TraceConfig{Jobs: 80, ArrivalRate: 4, MeanService: 3, MaxBoards: 20, CommFrac: 0.25}, 11)
	fails := mtbfFailures(6, 6, 60, 40, 4)
	cfg := Config{Policy: FragAware, CheckpointH: 1.5, RepairH: 8, HorizonH: 60,
		Slowdown: NewCommSlowdown(2, 2), RecordDecisions: true}
	a, err := Run(6, 6, trace, fails, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(6, 6, trace, fails, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical inputs produced different runs")
	}
	if a.Evictions == 0 {
		t.Fatal("test wants a scenario with evictions; tune the failure process")
	}
}

func TestCommSlowdown(t *testing.T) {
	m := NewCommSlowdown(2, 2)
	job := TraceJob{CommFrac: 0.5}
	one := &alloc.Placement{Job: 0, Rows: []int{0}, Cols: []int{0}}
	if s := m.ContendedSlowdown(one, job, 1); s != 1 {
		t.Fatalf("single-board slowdown %g, want 1", s)
	}
	compact := &alloc.Placement{Job: 1, Rows: []int{0, 1}, Cols: []int{0, 1}}
	spread := &alloc.Placement{Job: 2, Rows: []int{0, 1}, Cols: []int{0, 40}}
	sc, ss := m.ContendedSlowdown(compact, job, 1), m.ContendedSlowdown(spread, job, 1)
	if sc <= 1 {
		t.Fatalf("2x2-board slowdown %g, want > 1 (communication leaves the board)", sc)
	}
	if ss <= sc {
		t.Fatalf("spread placement slowdown %g not above compact %g", ss, sc)
	}
	if m.ContendedSlowdown(compact, TraceJob{}, 1) != 1 {
		t.Fatal("compute-bound job (CommFrac 0) must not slow down")
	}
	if again := m.ContendedSlowdown(compact, job, 1); again != sc {
		t.Fatalf("cached slowdown changed: %g != %g", again, sc)
	}
}
