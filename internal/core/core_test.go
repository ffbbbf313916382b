package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hammingmesh/internal/flowsim"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/topo"
)

// alltoallShare is the serial flow-level alltoall share over nShifts
// sampled shifts, normalized to the simulated injection bandwidth.
func alltoallShare(c *Cluster, nShifts int, seed uint64) (float64, error) {
	s := flowsim.New(c.Comp, c.Table, c.FlowConfig(seed))
	return s.AlltoallShareOver(c.AliveEndpoints(), nShifts, c.SimInjectionGBps(), seed)
}

func TestHxMeshClusterEndToEnd(t *testing.T) {
	c := NewHxMesh(2, 2, 4, 4)
	if got := c.Net.NumEndpoints(); got != 64 {
		t.Fatalf("endpoints = %d, want 64", got)
	}
	if c.CostMUSD() <= 0 {
		t.Error("cost must be positive")
	}
	if d := c.Diameter(); d < 2 || d > 8 {
		t.Errorf("diameter = %d out of range", d)
	}
	s, err := c.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.RelBisection != 0.25 {
		t.Errorf("relative bisection = %f, want 0.25", s.RelBisection)
	}
	if p, ok := c.AllocateJob(1, 2, 2); !ok || p.U() != 2 {
		t.Error("job allocation failed")
	}
}

func TestClusterAlltoallShares(t *testing.T) {
	// Flow-level alltoall shares must order: fat tree > Hx2 > Hx4-like.
	ft := NewFatTree(128, 0)
	hx2 := NewHxMesh(2, 2, 8, 8)
	sFT, err := alltoallShare(ft, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	sHx, err := alltoallShare(hx2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sFT < 0.85 {
		t.Errorf("fat tree share %.2f, want ≥0.85", sFT)
	}
	if sHx >= sFT {
		t.Errorf("Hx2 share %.2f not below fat tree %.2f", sHx, sFT)
	}
	if sHx < 0.1 || sHx > 0.7 {
		t.Errorf("Hx2 share %.2f outside plausible range", sHx)
	}
}

func TestClusterAllreduceShares(t *testing.T) {
	hx2 := NewHxMesh(2, 2, 4, 4)
	share, err := hx2.AllreduceShare(128 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.75 || share > 1.01 {
		t.Errorf("Hx2 allreduce share = %.3f, want ≈0.98", share)
	}
	ft := NewFatTree(64, 0)
	shareFT, err := ft.AllreduceShare(128 << 10)
	if err != nil {
		t.Fatal(err)
	}
	// One-port plane: the bidirectional endpoint-order ring is near the
	// single-plane optimum.
	if shareFT < 0.5 {
		t.Errorf("fat tree allreduce share = %.3f too low", shareFT)
	}
}

func TestPermutationDistribution(t *testing.T) {
	c := NewHxMesh(2, 2, 4, 4)
	bws, err := c.PermutationGBpsCfg(netsim.DefaultConfig(), 128<<10, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(bws) != 64 {
		t.Fatalf("got %d samples", len(bws))
	}
	for _, b := range bws {
		if b <= 0 || b > 201 {
			t.Errorf("per-endpoint bandwidth %.1f out of range", b)
		}
	}
}

func TestTorusAndDragonflyClusters(t *testing.T) {
	tor := NewTorus(8, 8)
	if tor.Net.NumEndpoints() != 64 {
		t.Error("torus endpoints")
	}
	if _, err := tor.AllreduceShare(64 << 10); err != nil {
		t.Errorf("torus allreduce: %v", err)
	}
	if _, ok := tor.AllocateJob(0, 1, 1); ok {
		t.Error("torus cluster should have no board allocator")
	}
	if _, err := tor.Summary(); err == nil {
		t.Error("torus summary should fail")
	}
}

// MemoryBytes counts every array a cluster holds. The expected size walks
// simcore.Compiled's fields by reflection, so a new compiled array fails
// here until MemoryBytes counts it, and sums the topo graph node by node.
func TestMemoryBytesCountsEveryArray(t *testing.T) {
	for _, name := range []string{"hx2mesh", "fattree", "dragonfly", "torus"} {
		c, err := NewByName(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		c.Table.Precompute(c.Comp.Endpoints[:3])
		var want int64
		v := reflect.ValueOf(c.Comp).Elem()
		for i := 0; i < v.NumField(); i++ {
			f, field := v.Field(i), v.Type().Field(i)
			switch {
			case field.Name == "Net":
				// The graph, summed below.
			case field.Name == "Endpoints":
				// Shared with Net.Endpoints, counted with the graph.
				if f.Pointer() != reflect.ValueOf(c.Net.Endpoints).Pointer() {
					t.Fatalf("%s: Compiled.Endpoints no longer shares Net.Endpoints", name)
				}
			case f.Kind() == reflect.Slice:
				want += int64(f.Len()) * int64(f.Type().Elem().Size())
			default:
				t.Fatalf("%s: Compiled.%s (%s) is neither a slice nor classified here", name, field.Name, f.Type())
			}
		}
		want += int64(len(c.Net.Nodes))*int64(reflect.TypeFor[topo.Node]().Size()) +
			int64(len(c.Net.Endpoints))*int64(reflect.TypeFor[topo.NodeID]().Size())
		for _, nd := range c.Net.Nodes {
			want += int64(len(nd.Ports)) * int64(reflect.TypeFor[topo.Port]().Size())
		}
		want += c.Table.MemoryBytes()
		if got := c.MemoryBytes(); got != want {
			t.Errorf("%s: MemoryBytes = %d, want %d", name, got, want)
		}
	}
}
