package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hammingmesh/internal/runner"
)

func benchPost(b *testing.B, url, body string) {
	resp, err := http.Post(url+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkDaemonHit measures the repeat-request fast path over real
// HTTP: canonicalize, content address, LRU cache hit — no pool work.
func BenchmarkDaemonHit(b *testing.B) {
	s := mustNew(b, Config{Pool: runner.New(2)})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := `{"kind":"allreduce","topo":"hx2mesh","size":"tiny"}`
	benchPost(b, ts.URL, req) // prime the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, req)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkDaemonDistinct measures the full miss path: every request has
// a fresh content address and waits for the compute slot, which runs it on
// the pool (the cheap analytic allreduce measurement, so the daemon
// overhead — not the simulation — dominates what is being compared across
// PRs).
func BenchmarkDaemonDistinct(b *testing.B) {
	s := mustNew(b, Config{Pool: runner.New(2)})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL,
			fmt.Sprintf(`{"kind":"allreduce","topo":"hx2mesh","size":"tiny","bytes":%d}`, 1024+i))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkDaemonSchedDistinct measures the sched miss path of a daemon
// that has already served one sched request on the cluster, as a
// long-running one has: every iteration posts a distinct seed, so each
// runs a full scheduler sweep, pricing placements by their virtual
// sub-mesh shapes.
func BenchmarkDaemonSchedDistinct(b *testing.B) {
	s := mustNew(b, Config{Pool: runner.New(2)})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := func(seed int) string {
		return fmt.Sprintf(`{"kind":"sched","topo":"hx2mesh","size":"small","seed":%d}`, seed)
	}
	benchPost(b, ts.URL, req(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, req(2+i))
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}
