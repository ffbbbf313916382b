package core

import (
	"math/rand"
	"testing"

	"hammingmesh/internal/flowsim"
	"hammingmesh/internal/netsim"
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
