package sched

import (
	"reflect"
	"strings"
	"testing"

	"hammingmesh/internal/faults"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// The outage processes' nesting guarantee, for the independent 1×1
// board-order process and a 3×1 burst process alike: under one seed, the
// event list kept at a lower rate is a subsequence of the list kept at any
// higher rate, so goodput-vs-MTBF and goodput-vs-burst-rate sweeps measure
// monotone degradation.
func TestFailuresNestedAcrossRates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		f     *Failures
		rates []float64 // descending; the first is the sampling rate
		empty *Failures
	}{
		{"1x1-board-order", NewFailures(faults.BoardOrder(8, 8, 3, orderSalt), 500, 64.0/20, 3),
			[]float64{64.0 / 20, 64.0 / 50, 64.0 / 100, 64.0 / 400, 64.0 / 2000}, NewFailures(nil, 100, 64.0/50, 1)},
		{"3x1-burst", NewBursts(8, 8, BurstShape{W: 3, H: 1}, 1000, 0.2, 11),
			[]float64{0.2, 0.1, 0.05, 0.02, 0.005}, NewBursts(0, 8, BurstShape{}, 100, 0.1, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.f.Validate() {
				t.Fatal("outages not sorted by time")
			}
			prev := tc.f.Thin(tc.rates[0]) // the sampling rate: everything
			if tc.f.Sampled() == 0 || len(prev) < tc.f.Sampled() {
				t.Fatalf("Thin at the sampling rate kept %d board failures of %d outages", len(prev), tc.f.Sampled())
			}
			for _, rate := range tc.rates[1:] {
				cur := tc.f.Thin(rate)
				if len(cur) > len(prev) {
					t.Fatalf("rate %g kept more events (%d) than the rate above it (%d)", rate, len(cur), len(prev))
				}
				i := 0
				for _, e := range cur {
					for i < len(prev) && prev[i] != e {
						i++
					}
					if i == len(prev) {
						t.Fatalf("rate %g event at t=%.3f board=%v not nested in the higher-rate set", rate, e.Time, e.Board)
					}
					i++
				}
				prev = cur
			}
			if got := tc.f.Thin(0); got != nil {
				t.Fatalf("Thin(0) returned %d events, want none", len(got))
			}
			if got := tc.empty.Thin(tc.rates[0]); got != nil {
				t.Fatalf("empty process produced %d events", len(got))
			}
		})
	}
}

// Bursts are correlated: every burst kills its full clipped region at one
// instant, and regions anchored inside the grid have exactly W×H boards.
func TestBurstsKillContiguousRegions(t *testing.T) {
	shape := BurstShape{W: 3, H: 2}
	b := NewBursts(10, 10, shape, 2000, 0.05, 7)
	events := b.Thin(0.05)
	if len(events) == 0 {
		t.Fatal("no burst events")
	}
	// Group by time: each group must be a clipped W×H region.
	for i := 0; i < len(events); {
		j := i
		for j < len(events) && events[j].Time == events[i].Time {
			j++
		}
		group := events[i:j]
		if len(group) > shape.W*shape.H {
			t.Fatalf("burst at t=%.3f has %d boards, want ≤ %d", group[0].Time, len(group), shape.W*shape.H)
		}
		// The group must equal regionBoards of its min-corner anchor.
		ax, ay := group[0].Board[0], group[0].Board[1]
		want := regionBoards(10, 10, [2]int{ax, ay}, shape.W, shape.H)
		got := make([][2]int, len(group))
		for k, e := range group {
			got[k] = e.Board
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("burst at t=%.3f boards %v, want region %v", group[0].Time, got, want)
		}
		i = j
	}
	// Determinism.
	again := NewBursts(10, 10, shape, 2000, 0.05, 7).Thin(0.05)
	if !reflect.DeepEqual(events, again) {
		t.Fatal("same (grid, shape, rate, seed) produced different bursts")
	}
}

// One correlated burst is one outage: when a burst's boards share an
// instant, the scheduling pass defers to the burst's last event, so the
// victim is evicted once instead of being re-placed mid-burst onto boards
// the same outage is about to kill (and evicted again).
func TestBurstEvictsOnceAndDefersRescheduling(t *testing.T) {
	trace := []TraceJob{{ID: 0, Arrival: 0, Boards: 2, Service: 10}}
	// A 3-board burst at t=1 on a 4x1 grid: the job runs on boards 0-1,
	// boards 2-3 are free. Rescheduling after the first board failure
	// would re-place the job on boards 2-3 and board 2's same-instant
	// failure would evict it a second time.
	fails := []FailEvent{
		{Time: 1, Board: [2]int{0, 0}},
		{Time: 1, Board: [2]int{1, 0}},
		{Time: 1, Board: [2]int{2, 0}},
	}
	m, err := Run(4, 1, trace, fails, Config{Policy: FirstFit, RepairH: 2, HorizonH: 30, RecordDecisions: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Evictions != 1 {
		t.Fatalf("one burst caused %d evictions, want 1:\n%s", m.Evictions, strings.Join(m.Decisions, "\n"))
	}
	if m.Failures != 3 {
		t.Fatalf("recorded %d board failures, want 3", m.Failures)
	}
	// The job waits out the repairs, restarts once and finishes.
	if m.Completed != 1 || m.Backlog != 0 {
		t.Fatalf("completed %d backlog %d, want 1 and 0:\n%s", m.Completed, m.Backlog, strings.Join(m.Decisions, "\n"))
	}
	placed := 0
	for _, d := range m.Decisions {
		if strings.Contains(d, "place job=0") {
			placed++
		}
	}
	if placed != 2 {
		t.Fatalf("job placed %d times, want 2 (initial + one post-burst restart):\n%s",
			placed, strings.Join(m.Decisions, "\n"))
	}
}

// Independent failures cycle through the order faults.SampleFailedBoards
// powers off a prefix of, so the boards a resilience sweep fails first are
// the first to fail in the scheduler. A non-square grid catches a swapped
// axis.
func TestBoardSequenceIsSampledBoardOrder(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 5, 3, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	seq := BoardSequence(h, 7)
	for _, n := range []int{1, 6, 15} {
		if got := faults.NewBuilder(c).SampleFailedBoards(h, n, 7).Build().FailedBoards(); !reflect.DeepEqual(got, seq[:n]) {
			t.Fatalf("SampleFailedBoards(%d) failed %v, want the sequence prefix %v", n, got, seq[:n])
		}
	}
}

// The scheduler's grid-level region clipping and the network-level
// faults.Builder.FailBoardRegion must kill identical board sets: a burst
// in a scheduler sweep and a FaultSet rack outage in a resilience study
// model the same physical event. Any change to either clipping convention
// (wrap-around, anchor semantics) must land in both.
func TestRegionBoardsMatchesFaultsBuilder(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	for _, anchor := range [][2]int{{0, 0}, {1, 2}, {3, 3}, {2, 0}, {0, 3}} {
		fs := faults.NewBuilder(c).FailBoardRegion(h, anchor[0], anchor[1], 3, 2).Build()
		want := regionBoards(4, 4, anchor, 3, 2)
		if !reflect.DeepEqual(fs.FailedBoards(), want) {
			t.Fatalf("anchor %v: faults builder failed %v, scheduler region %v",
				anchor, fs.FailedBoards(), want)
		}
	}
}

func TestMergeFailures(t *testing.T) {
	a := []FailEvent{{Time: 1, Board: [2]int{0, 0}}, {Time: 3, Board: [2]int{1, 0}}}
	b := []FailEvent{{Time: 2, Board: [2]int{2, 0}}, {Time: 3, Board: [2]int{3, 0}}}
	m := MergeFailures(a, b)
	if len(m) != 4 {
		t.Fatalf("merged %d events, want 4", len(m))
	}
	for i := 1; i < len(m); i++ {
		if m[i].Time < m[i-1].Time {
			t.Fatalf("merge not sorted at %d", i)
		}
	}
	// a-first at equal times: the t=3 pair keeps a's event before b's.
	if m[2].Board != [2]int{1, 0} || m[3].Board != [2]int{3, 0} {
		t.Fatalf("merge not stable at equal times: %v", m)
	}
	// Merging an empty burst list must return the independent list
	// unchanged (the zero-burst golden guarantee).
	if got := MergeFailures(a, nil); !reflect.DeepEqual(got, a) {
		t.Fatal("merge with empty second list changed the first")
	}
	if got := MergeFailures(nil, b); !reflect.DeepEqual(got, b) {
		t.Fatal("merge with empty first list changed the second")
	}
}
