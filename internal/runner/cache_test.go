package runner

import (
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/obs"
)

// The bounded cluster cache must never let its cached entries exceed the
// budget — under churn over more topologies than fit, every access
// re-sizes the cached tables and evicts from the LRU tail — and an
// evicted cluster must rebuild bit-identically (same flow-level
// measurement before and after eviction).
func TestClusterCacheBudgetChurn(t *testing.T) {
	pool := New(2)

	// Establish the reference measurements on an unbounded pool first.
	names := []string{"hx2mesh", "hyperx", "torus", "fattree"}
	ref := make(map[string]float64)
	for _, name := range names {
		c, err := pool.Cluster(name, core.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		share, err := pool.AlltoallFlowShare(c, c.FlowConfig(7), 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		ref[name] = share
	}

	// A budget around one warmed tiny cluster forces churn: the four
	// topologies cannot all stay cached.
	_, bytes, _ := pool.CacheStats()
	budget := bytes / int64(len(names))
	if budget <= 0 {
		t.Fatalf("unexpected zero cache size (stats bytes = %d)", bytes)
	}
	pool.SetClusterBudget(budget)
	if _, got, _ := pool.CacheStats(); got > budget {
		t.Fatalf("cache holds %d bytes right after SetClusterBudget(%d)", got, budget)
	}

	for round := 0; round < 3; round++ {
		for _, name := range names {
			c, err := pool.Cluster(name, core.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			share, err := pool.AlltoallFlowShare(c, c.FlowConfig(7), 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			if share != ref[name] {
				t.Fatalf("round %d: %s rebuilt share %v, want bit-identical %v",
					round, name, share, ref[name])
			}
			// Warming the table above grew this cluster; the *cached*
			// total may only exceed the budget until the next access
			// sweeps — trigger one and check the hard invariant.
			if _, err := pool.Cluster(name, core.Tiny); err != nil {
				t.Fatal(err)
			}
			entries, got, _ := pool.CacheStats()
			if got > budget {
				t.Fatalf("round %d after %s: cache holds %d bytes (%d entries) > budget %d",
					round, name, got, entries, budget)
			}
		}
	}
	if _, _, evictions := pool.CacheStats(); evictions == 0 {
		t.Fatalf("churn over %d topologies under a one-cluster budget never evicted", len(names))
	}
}

// Without a budget the cache keeps every cluster (the CLI sweep behavior):
// repeated access returns the same instance and never evicts. Its bytes
// are measured all the same: after a warm, CacheStats reports the
// cluster's MemoryBytes, and a hit adds that amount to the hit-bytes
// counter.
func TestClusterCacheUnboundedDefault(t *testing.T) {
	pool := New(1)
	reg := obs.NewRegistry()
	pool.EnableObs(reg)
	a, err := pool.Cluster("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	cold := a.MemoryBytes()
	if _, err := pool.AlltoallFlowShare(a, a.FlowConfig(7), 2, 7); err != nil {
		t.Fatal(err)
	}
	warm := a.MemoryBytes()
	if warm <= cold {
		t.Fatalf("warming the routing table left the cluster at %d bytes (cold %d)", warm, cold)
	}
	b, err := pool.Cluster("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("unbounded cache rebuilt a cached cluster")
	}
	if entries, bytes, evictions := pool.CacheStats(); entries != 1 || evictions != 0 || bytes != warm {
		t.Fatalf("stats = (%d entries, %d bytes, %d evictions), want (1, %d, 0)",
			entries, bytes, evictions, warm)
	}
	if got := reg.Counter("runner_cluster_cache_hit_bytes_total", "", "").Value(); got != warm {
		t.Fatalf("hit bytes = %d, want the warm cluster's %d", got, warm)
	}
}
