// Serving: run the hxd simulation-as-a-service layer in-process and walk
// the request lifecycle — a fresh computation, a semantically-equal
// request served byte-identically from the content-addressed cache,
// concurrent identical requests sharing one computation, and the metrics
// the daemon exposes. It exits non-zero when any of these fails. The same server speaks HTTP in cmd/hxd;
// here it is driven through Go's httptest to stay self-contained.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"hammingmesh/internal/runner"
	"hammingmesh/internal/serve"
)

func main() {
	// The daemon core: canonicalize → SHA-256 content address → LRU
	// result cache → singleflight → one-at-a-time compute on the pool.
	s, err := serve.New(serve.Config{Pool: runner.New(0), CacheBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(body string) (string, http.Header) {
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return string(b), resp.Header
	}

	// 1. A fresh request computes on the pool (X-Hxd-Cache: miss).
	body1, h1 := post(`{"kind":"alltoall_flow","topo":"hx2mesh","size":"tiny","shifts":4}`)
	fmt.Printf("first request:  %s  [%s, key %.12s…]\n", body1, h1.Get("X-Hxd-Cache"), h1.Get("X-Hxd-Key"))

	// 2. A semantically equal request — keys reordered, the default seed
	// spelled out, an inert workers option added — canonicalizes to the
	// same content address and is served from the cache, byte-identical.
	body2, h2 := post(`{"shifts":4,"seed":1,"workers":8,"size":"tiny","topo":"hx2mesh","kind":"alltoall_flow"}`)
	fmt.Printf("equal request:  %s  [%s, identical=%v]\n", body2, h2.Get("X-Hxd-Cache"), body1 == body2)

	// 3. Concurrent identical requests share one computation: the first
	// becomes the leader and computes (miss); each of the others either
	// attaches to the leader's in-flight computation (coalesced) or, if it
	// arrives after the leader finished, reads the cache (hit). Which of
	// the two depends on goroutine timing, so the example checks and
	// prints only what does not.
	before := metric(ts.URL, "hxd_computations_total")
	bodies, statuses := make([]string, 4), make([]string, 4)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h http.Header
			bodies[i], h = post(`{"kind":"allreduce","topo":"hx4mesh","size":"tiny"}`)
			statuses[i] = h.Get("X-Hxd-Cache")
		}()
	}
	wg.Wait()
	count := map[string]int{}
	for i, st := range statuses {
		count[st]++
		if bodies[i] != bodies[0] {
			log.Fatalf("concurrent request %d: body differs from request 0", i)
		}
	}
	if count["miss"] != 1 || count["hit"]+count["coalesced"] != 3 {
		log.Fatalf("concurrent requests: X-Hxd-Cache %v, want one miss and three hit or coalesced", statuses)
	}
	computed := metric(ts.URL, "hxd_computations_total") - before
	if computed != 1 {
		log.Fatalf("concurrent requests: %d computations, want 1", computed)
	}
	fmt.Printf("4 concurrent identical requests: 1 miss, 3 hit or coalesced, %d computation, identical bodies\n", computed)

	// 4. The registry tallies it all for /metrics.
	entries, bytes, _, _, _ := s.CacheStats()
	fmt.Printf("cache: %d entries, %d bytes\n", entries, bytes)
	fmt.Println("metric: hxd_computations_total", metric(ts.URL, "hxd_computations_total"))
}

// metric reads one unlabelled counter from the server's /metrics page (0
// when it is missing).
func metric(base, name string) (n int64) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(page), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			fmt.Sscan(v, &n)
		}
	}
	return n
}
