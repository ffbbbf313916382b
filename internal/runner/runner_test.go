package runner

import (
	"fmt"
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/netsim"
)

// TestRunDeterministicAcrossWorkerCounts checks that job results depend
// only on the job index and base seed, never on scheduling.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	build := func(workers int) []float64 {
		p := NewSeeded(workers, 42)
		jobs := make([]Job, 32)
		for i := range jobs {
			jobs[i] = Job{
				Name: fmt.Sprintf("job%d", i),
				Run: func(ctx *Ctx) (any, error) {
					return float64(ctx.Seed), nil
				},
			}
		}
		vals, err := Float64s(p.Run(jobs))
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	serial := build(1)
	for _, w := range []int{2, 4, 8} {
		got := build(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d job %d: %v != %v", w, i, got[i], serial[i])
			}
		}
	}
}

// TestClusterCacheShared checks that concurrent jobs share one cluster
// build per (name, size).
func TestClusterCacheShared(t *testing.T) {
	p := New(4)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{
			Name: fmt.Sprintf("c%d", i),
			Run: func(ctx *Ctx) (any, error) {
				return p.Cluster("hx2mesh", core.Tiny)
			},
		}
	}
	results := p.Run(jobs)
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	first := results[0].Value.(*core.Cluster)
	for _, r := range results[1:] {
		if r.Value.(*core.Cluster) != first {
			t.Fatal("cluster cache returned distinct builds")
		}
	}
	if _, err := p.Cluster("nope", core.Tiny); err == nil {
		t.Fatal("unknown topology must error")
	}
}

// TestAlltoallPacketShareMatchesSerial checks that the worker-pool sweep
// reproduces the serial netsim estimator exactly, for any worker count.
func TestAlltoallPacketShareMatchesSerial(t *testing.T) {
	c, err := core.NewByName("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.DefaultConfig()
	want, err := netsim.AlltoallShare(c.Comp, c.Table, cfg, 32<<10, 4, c.SimInjectionGBps(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		got, err := NewSeeded(w, 1).AlltoallPacketShare(c, cfg, 32<<10, 4, 9)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d share %v != serial %v", w, got, want)
		}
	}
}

// TestPermutationSweep checks the parallel permutation sweep returns one
// bandwidth sample per endpoint per permutation, reproducibly.
func TestPermutationSweep(t *testing.T) {
	c, err := core.NewByName("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSeeded(4, 5).PermutationSweepGBps(c, netsim.DefaultConfig(), 32<<10, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3*c.Comp.NumEndpoints() {
		t.Fatalf("got %d samples, want %d", len(a), 3*c.Comp.NumEndpoints())
	}
	b, err := NewSeeded(1, 5).PermutationSweepGBps(c, netsim.DefaultConfig(), 32<<10, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across worker counts", i)
		}
	}
}
