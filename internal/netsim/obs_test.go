package netsim

import (
	"strings"
	"testing"

	"hammingmesh/internal/obs"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// TestObsBitIdentical is the obs contract for the packet engine: with
// metrics and tracing attached, Result is bit-identical to the
// uninstrumented run — for the serial engine and every shard count — and
// the instruments record shard-count-invariant totals.
func TestObsBitIdentical(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	flows := ShiftFlows(h.Endpoints, 3, 48<<10)
	cfg := DefaultConfig()

	res, err := New(c, nil, cfg).Run(flows)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := cloneResult(res)

	kindTotal := func(reg *obs.Registry) (arrive, free int64) {
		return reg.Counter("netsim_events_total", `kind="arrive"`, "").Value(),
			reg.Counter("netsim_events_total", `kind="free"`, "").Value()
	}

	var wantArrive, wantFree int64
	for _, shards := range []int{0, 1, 2, 4} {
		ocfg := cfg
		ocfg.Shards = shards
		ocfg.Metrics = obs.NewRegistry()
		ocfg.Trace = obs.NewRecorder(1 << 14)
		sim := New(c, nil, ocfg)
		ores, err := sim.Run(flows)
		if err != nil {
			t.Fatalf("shards=%d with obs: %v", shards, err)
		}
		requireIdentical(t, "instrumented run", want, cloneResult(ores))

		arrive, free := kindTotal(ocfg.Metrics)
		if arrive == 0 || free == 0 {
			t.Fatalf("shards=%d: kind counters not recorded (arrive=%d free=%d)", shards, arrive, free)
		}
		if arrive+free != want.Events {
			t.Errorf("shards=%d: arrive+free = %d, want Events = %d", shards, arrive+free, want.Events)
		}
		if shards == 0 {
			wantArrive, wantFree = arrive, free
		} else if arrive != wantArrive || free != wantFree {
			t.Errorf("shards=%d: kind totals (%d, %d) differ from serial (%d, %d)",
				shards, arrive, free, wantArrive, wantFree)
		}
		if del := ocfg.Metrics.Counter("netsim_deliveries_total", "", "").Value(); del == 0 {
			t.Errorf("shards=%d: no deliveries recorded", shards)
		}
		if ocfg.Trace.Len() == 0 {
			t.Errorf("shards=%d: trace recorded no events", shards)
		}
		if shards > 1 && sim.par != nil {
			if w := ocfg.Metrics.Counter("netsim_windows_total", "", "").Value(); w == 0 {
				t.Errorf("shards=%d: no windows recorded", shards)
			}
		}
		var sb strings.Builder
		ocfg.Metrics.Render(&sb)
		if !strings.Contains(sb.String(), "netsim_runs_total 1") {
			t.Errorf("shards=%d: run counter missing from render:\n%s", shards, sb.String())
		}
	}
}

// TestObsMetricsAccumulate verifies repeated runs on one Sim flush into
// the same registry additively (counters) and last-run-wins (gauges).
func TestObsMetricsAccumulate(t *testing.T) {
	h := topo.NewHxMesh(1, 1, 2, 2, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	flows := ShiftFlows(h.Endpoints, 1, 16<<10)
	cfg := DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	sim := New(c, nil, cfg)
	for i := 0; i < 3; i++ {
		if _, err := sim.Run(flows); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if runs := cfg.Metrics.Counter("netsim_runs_total", "", "").Value(); runs != 3 {
		t.Errorf("runs counter = %d, want 3", runs)
	}
	ev := cfg.Metrics.Counter("netsim_events_total", `kind="arrive"`, "").Value() +
		cfg.Metrics.Counter("netsim_events_total", `kind="free"`, "").Value()
	if ev == 0 || ev%3 != 0 {
		t.Errorf("kind totals = %d, want a positive multiple of 3 (identical runs)", ev)
	}
}
