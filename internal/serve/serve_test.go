package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hammingmesh/internal/runner"
)

// mustNew builds a Server, failing the test on error (only journal-enabled
// configs can fail).
func mustNew(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// post sends one experiment request and returns status, body and the
// cache-status header.
func post(t *testing.T, url, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp.Header.Get("X-Hxd-Cache")
}

// Acceptance: for each supported experiment kind, two HTTP requests with
// semantically equal configs (reordered keys, explicit defaults, inert
// options) return byte-identical JSON bodies, with the second marked as a
// cache hit.
func TestServeAllKindsCacheHitDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := mustNew(t, Config{Pool: runner.New(0)})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	pairs := []struct {
		kind, a, b string
	}{
		{KindAlltoallFlow,
			`{"kind":"alltoall_flow","topo":"hx2mesh","size":"tiny","shifts":4,"workers":8}`,
			`{"workers":2,"shifts":4,"size":"tiny","seed":1,"topo":"hx2mesh","kind":"alltoall_flow","shards":5}`},
		{KindAlltoallPacket,
			`{"kind":"alltoall_packet","topo":"torus","size":"tiny","shifts":2,"bytes":65536}`,
			`{"bytes":65536,"kind":"alltoall_packet","seed":1,"shifts":2,"shards":3,"size":"tiny","topo":"torus"}`},
		{KindPermutation,
			`{"kind":"permutation","topo":"fattree","size":"tiny","bytes":65536}`,
			`{"perms":1,"bytes":65536,"seed":1,"workers":3,"size":"tiny","topo":"fattree","kind":"permutation"}`},
		{KindAllreduce,
			`{"kind":"allreduce","topo":"hx4mesh","size":"tiny"}`,
			`{"seed":9,"bytes":262144,"size":"tiny","topo":"hx4mesh","kind":"allreduce"}`},
		{KindResilience,
			`{"kind":"resilience","topo":"hx2mesh","size":"tiny","trials":1,"steps":2,"shifts":2,"bytes":65536}`,
			`{"steps":2,"shifts":2,"trials":1,"bytes":65536,"fail_links":0.2,"fail_seed":1,"seed":1,"size":"tiny","topo":"hx2mesh","kind":"resilience"}`},
		{KindSched,
			`{"kind":"sched","topo":"hx2mesh","size":"tiny","jobs":15,"trials":1,"horizon_h":10}`,
			`{"horizon_h":10,"jobs":15,"trials":1,"mtbfs":[0,40],"ckpts_h":[2],"policies":["firstfit"],"seed":1,"size":"tiny","topo":"hx2mesh","kind":"sched"}`},
	}
	for _, p := range pairs {
		t.Run(p.kind, func(t *testing.T) {
			code1, body1, cache1 := post(t, ts.URL, p.a)
			if code1 != http.StatusOK {
				t.Fatalf("first request: status %d, body %s", code1, body1)
			}
			if cache1 == "hit" {
				t.Fatalf("first request already a hit")
			}
			code2, body2, cache2 := post(t, ts.URL, p.b)
			if code2 != http.StatusOK {
				t.Fatalf("second request: status %d, body %s", code2, body2)
			}
			if cache2 != "hit" {
				t.Fatalf("semantically equal request not served from cache (X-Hxd-Cache=%q)", cache2)
			}
			if !bytes.Equal(body1, body2) {
				t.Fatalf("bodies differ:\n%s\n%s", body1, body2)
			}
			var v map[string]any
			if err := json.Unmarshal(body1, &v); err != nil {
				t.Fatalf("body is not JSON: %v", err)
			}
			if v["kind"] != p.kind {
				t.Fatalf("body kind = %v, want %s", v["kind"], p.kind)
			}
		})
	}

	// The daemon's health and metrics endpoints reflect the traffic.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (%v)", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("hxd_cache_hits_total %d", len(pairs)),
		fmt.Sprintf("hxd_computations_total %d", len(pairs)),
		`hxd_requests_total{kind="sched",status="ok"} 2`,
		"hxd_stage_seconds_count", "hxd_queue_depth", "hxd_cache_bytes",
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mb)
		}
	}
}

// Acceptance: N concurrent identical requests perform exactly one pool
// computation, with the coalescing counter showing N-1.
func TestServeCoalescesConcurrentIdentical(t *testing.T) {
	const n = 8
	release := make(chan struct{})
	var computations atomic.Int64
	s := mustNew(t, Config{Compute: func(cn *Canon) ([]byte, error) {
		computations.Add(1)
		<-release
		return cn.CanonicalJSON(), nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := `{"kind":"alltoall_flow","topo":"hx2mesh","size":"tiny"}`
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	statuses := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, cache := post(t, ts.URL, req)
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
			}
			bodies[i], statuses[i] = body, cache
		}(i)
	}
	// Hold the single computation open until all other requests have
	// attached to it, then let everyone finish at once.
	deadline := time.Now().Add(10 * time.Second)
	for s.coalesced.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", s.coalesced.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computations.Load(); got != 1 {
		t.Fatalf("performed %d computations, want exactly 1", got)
	}
	if got := s.coalesced.Value(); got != n-1 {
		t.Fatalf("coalesce counter = %d, want %d", got, n-1)
	}
	miss, hit := 0, 0
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	for _, st := range statuses {
		switch st {
		case "miss":
			miss++
		case "coalesced":
			hit++
		default:
			t.Fatalf("unexpected cache status %q", st)
		}
	}
	if miss != 1 || hit != n-1 {
		t.Fatalf("statuses = 1 leader + %d coalesced? got %d miss, %d coalesced", n-1, miss, hit)
	}
}

// Acceptance: a full cache under budget pressure evicts LRU entries but
// never serves a stale or wrong result — every response matches a fresh
// computation of its canonical config.
func TestServeEvictionNeverServesWrongResult(t *testing.T) {
	// Deterministic stand-in for the pool: the body IS the canonical
	// config, so correctness is checkable against a fresh Canonicalize.
	compute := func(cn *Canon) ([]byte, error) { return cn.CanonicalJSON(), nil }
	reqAt := func(seed int) (string, []byte) {
		r := Request{Kind: KindAlltoallFlow, Topo: "hx2mesh", Size: "tiny", Seed: int64(seed)}
		cn, err := Canonicalize(r)
		if err != nil {
			t.Fatalf("canonicalize: %v", err)
		}
		return fmt.Sprintf(`{"kind":"alltoall_flow","topo":"hx2mesh","size":"tiny","seed":%d}`, seed),
			cn.CanonicalJSON()
	}
	_, sample := reqAt(1)
	budget := 2*entrySize(strings.Repeat("k", 64), sample) + entrySize("", nil)/2 // room for two entries
	s := mustNew(t, Config{Compute: compute, CacheBytes: budget})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Fill far past the budget, then revisit every seed: evicted entries
	// recompute (miss) and still return exactly the right body.
	const seeds = 6
	for round := 0; round < 2; round++ {
		for seed := 1; seed <= seeds; seed++ {
			body, want := reqAt(seed)
			code, got, _ := post(t, ts.URL, body)
			if code != http.StatusOK {
				t.Fatalf("seed %d round %d: status %d", seed, round, code)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d round %d: body %s, want fresh result %s", seed, round, got, want)
			}
		}
	}
	entries, cbytes, hits, _, evictions := s.CacheStats()
	if cbytes > budget {
		t.Fatalf("cache holds %d bytes over budget %d", cbytes, budget)
	}
	if entries > 2 {
		t.Fatalf("cache holds %d entries, budget fits 2", entries)
	}
	if evictions == 0 {
		t.Fatal("no evictions despite 6 distinct results on a 2-entry budget")
	}
	// With 6 seeds cycling through 2 slots in order, every revisit misses:
	// all correctness above came from fresh computations, none stale.
	if hits != 0 {
		t.Fatalf("expected pure miss traffic under cyclic pressure, got %d hits", hits)
	}
}

// A full compute queue answers 429 + Retry-After instead of queueing
// unboundedly, and invalid requests fail with 400.
func TestServeBackpressureAndBadRequests(t *testing.T) {
	release := make(chan struct{})
	s := mustNew(t, Config{
		Compute:  func(cn *Canon) ([]byte, error) { <-release; return cn.CanonicalJSON(), nil },
		QueueLen: 1,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 6
	var wg sync.WaitGroup
	var rejected, served atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kind":"alltoall_flow","topo":"hx2mesh","size":"tiny","seed":%d}`, i+1)
			resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				rejected.Add(1)
			case http.StatusOK:
				served.Add(1)
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	// With one slot in compute and one in the queue, the rest of the
	// concurrent burst must bounce.
	deadline := time.Now().Add(10 * time.Second)
	for s.rejected.Value() < n-2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d rejections on a 1-slot queue", s.rejected.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	s.Close()
	if rejected.Load() < n-2 || served.Load() < 1 || rejected.Load()+served.Load() != n {
		t.Fatalf("rejected %d served %d of %d, want >= %d rejected and the rest served",
			rejected.Load(), served.Load(), n, n-2)
	}

	for name, body := range map[string]string{
		"unknown kind":  `{"kind":"nope"}`,
		"unknown field": `{"kind":"alltoall_flow","bogus":1}`,
		"bad topo":      `{"kind":"alltoall_flow","topo":"moebius"}`,
		"not json":      `{"kind":`,
	} {
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// A body past maxRequestBytes is refused with 413 before the daemon
// buffers it, even when it would decode to a valid request, and the
// daemon keeps serving normal requests afterwards.
func TestServeRejectsOversizedBody(t *testing.T) {
	s := mustNew(t, Config{Compute: func(cn *Canon) ([]byte, error) { return cn.CanonicalJSON(), nil }})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := `{"kind":"allreduce","topo":"hx2mesh","size":"tiny"}`
	code, body, _ := post(t, ts.URL, strings.Repeat(" ", 1<<20)+req)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB body: status %d (%s), want 413", code, body)
	}
	if code, body, _ := post(t, ts.URL, req); code != http.StatusOK {
		t.Fatalf("normal request after the oversized one: status %d (%s), want 200", code, body)
	}
	var m strings.Builder
	s.Metrics().Render(&m)
	if want := `hxd_requests_total{kind="unknown",status="bad_request"} 1`; !strings.Contains(m.String(), want) {
		t.Fatalf("metrics lack %s:\n%s", want, m.String())
	}
}
