// Serving: run the hxd simulation-as-a-service layer in-process and walk
// the request lifecycle — a fresh computation, a semantically-equal
// request served byte-identically from the content-addressed cache,
// concurrent identical requests coalescing onto one computation, and the
// metrics the daemon exposes. The same server speaks HTTP in cmd/hxd;
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

	// 3. Concurrent identical requests coalesce: the first becomes the
	// leader, the rest attach to its in-flight computation.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(`{"kind":"allreduce","topo":"hx4mesh","size":"tiny"}`)
		}()
	}
	wg.Wait()

	// 4. The registry tallies it all for /metrics.
	entries, bytes, hits, misses, _ := s.CacheStats()
	fmt.Printf("cache: %d entries, %d bytes, %d hits, %d misses\n", entries, bytes, hits, misses)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "hxd_cache_hits_total") ||
			strings.HasPrefix(line, "hxd_coalesced_total") ||
			strings.HasPrefix(line, "hxd_computations_total") {
			fmt.Println("metric:", line)
		}
	}
}
