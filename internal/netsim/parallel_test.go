package netsim

import (
	"reflect"
	"strings"
	"testing"

	"hammingmesh/internal/faults"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// cloneResult deep-copies a Result (its slices are owned by the Sim and
// invalidated by the next Run).
func cloneResult(r *Result) Result {
	c := *r
	c.FlowFinish = append([]float64(nil), r.FlowFinish...)
	c.RecvByRank = append([]int64(nil), r.RecvByRank...)
	return c
}

func requireIdentical(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: results differ\nwant makespan=%v total=%d events=%d\ngot  makespan=%v total=%d events=%d",
			label, want.Makespan, want.TotalBytes, want.Events,
			got.Makespan, got.TotalBytes, got.Events)
	}
}

// TestShardInvariance is the parallel engine's acceptance test: Result is
// bit-identical — every field — for shard counts {1, 2, 4, 8} and
// identical to the serial engine, on HxMesh and Dragonfly, pristine and on
// a degraded fabric.
func TestShardInvariance(t *testing.T) {
	type fabric struct {
		name string
		n    *topo.Network
		eps  []topo.NodeID
	}
	hx := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	df := topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 8, LP: topo.DefaultLinkParams()})
	fabrics := []fabric{
		{"hxmesh", hx.Network, hx.Endpoints},
		{"dragonfly", df, df.Endpoints},
	}
	for _, fb := range fabrics {
		c := simcore.Of(fb.n)
		for _, faulted := range []bool{false, true} {
			table := routing.NewTable(c)
			eps := fb.eps
			name := fb.name + "/pristine"
			if faulted {
				b := faults.NewBuilder(c)
				b.AcceptedConnectedLinks(0.10, 9)
				fs := b.Build()
				table = routing.NewTableMask(c, fs.Mask())
				eps = fs.SurvivingEndpoints()
				name = fb.name + "/faulted"
			}
			flows := ShiftFlows(eps, 3, 48<<10)
			cfg := DefaultConfig()

			res, err := New(c, table, cfg).Run(flows)
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			want := cloneResult(res)
			if want.TotalBytes == 0 {
				t.Fatalf("%s: empty run", name)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				scfg := cfg
				scfg.Shards = shards
				sim := New(c, table, scfg)
				if shards > 1 && sim.par == nil {
					t.Fatalf("%s shards=%d: parallel engine not engaged", name, shards)
				}
				res, err := sim.Run(flows)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", name, shards, err)
				}
				requireIdentical(t, name+" shards="+string(rune('0'+shards)), want, cloneResult(res))
				// Reset-reuse must hold for the parallel engine too.
				res, err = sim.Run(flows)
				if err != nil {
					t.Fatalf("%s shards=%d rerun: %v", name, shards, err)
				}
				requireIdentical(t, name+" rerun", want, cloneResult(res))
			}
		}
	}
}

// TestShardGolden pins the sharded engine to the pre-simcore golden
// values directly (the same ones TestRegressionAlltoallGolden checks for
// the serial engine).
func TestShardGolden(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 2, 2, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	flows := ShiftFlows(h.Endpoints, 3, 64<<10)
	for _, shards := range []int{2, 4, 8} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		res, err := New(c, nil, cfg).Run(flows)
		if err != nil {
			t.Fatal(err)
		}
		if !near(res.Makespan, 1838.3999999999999) {
			t.Errorf("shards=%d makespan = %v, want 1838.4", shards, res.Makespan)
		}
		if res.TotalBytes != 1048576 || res.Events != 704 {
			t.Errorf("shards=%d totalBytes=%d events=%d, want 1048576/704", shards, res.TotalBytes, res.Events)
		}
	}
}

// TestShardFallbackMatchesSerial: inherently serial configurations
// (CreditFC, UGAL, RandomCandidate) must fall back to the serial engine
// under Shards > 1 and produce its exact results.
func TestShardFallbackMatchesSerial(t *testing.T) {
	df := topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 8, LP: topo.DefaultLinkParams()})
	c := simcore.Of(df)
	flows := ShiftFlows(df.Endpoints, 5, 32<<10)
	cases := map[string]func(*Config){
		"creditfc": func(cfg *Config) { cfg.Mode = CreditFC },
		"ugal":     func(cfg *Config) { cfg.UGAL = true },
		"random":   func(cfg *Config) { cfg.Choice = RandomCandidate },
	}
	for name, mod := range cases {
		cfg := DefaultConfig()
		mod(&cfg)
		res, err := New(c, nil, cfg).Run(flows)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		want := cloneResult(res)

		cfg.Shards = 4
		sim := New(c, nil, cfg)
		if sim.par != nil {
			t.Fatalf("%s: expected serial fallback, got parallel engine", name)
		}
		res, err = sim.Run(flows)
		if err != nil {
			t.Fatalf("%s shards=4: %v", name, err)
		}
		requireIdentical(t, name, want, cloneResult(res))
	}
}

// TestShardMaxEventsGlobalBudget: MaxEvents is one global budget across
// shards — a limit the serial engine trips must also trip every sharded
// run (not shards-times-larger), with the same error.
func TestShardMaxEventsGlobalBudget(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 2, 2, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	flows := ShiftFlows(h.Endpoints, 3, 64<<10)
	// The run needs 704 events (the golden count); budget 100 must fail
	// for every shard count, and budget 704 must succeed.
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.MaxEvents = 100
		_, err := New(c, nil, cfg).Run(flows)
		if err == nil || !strings.Contains(err.Error(), "exceeded 100 events") {
			t.Fatalf("shards=%d: want budget error, got %v", shards, err)
		}
		cfg.MaxEvents = 704
		res, err := New(c, nil, cfg).Run(flows)
		if err != nil {
			t.Fatalf("shards=%d at exact budget: %v", shards, err)
		}
		if res.Events != 704 {
			t.Fatalf("shards=%d events=%d, want 704", shards, res.Events)
		}
	}
}
