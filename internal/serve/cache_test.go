package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hammingmesh/internal/obs"
)

// The result cache's accounted bytes must never exceed its budget, and
// eviction must be LRU: the least recently touched key goes first.
func TestCacheBudgetAndLRUOrder(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 100)
	per := entrySize("k0", body)
	c := NewCache(3 * per) // room for exactly three entries

	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), body)
	}
	if _, ok := c.Get("k0"); !ok { // touch k0: k1 becomes LRU
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k3", body) // must evict k1, not k0
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived eviction although it was LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted although it was more recently used", k)
		}
	}
	if entries, bytes, _, _, evictions := c.Stats(); entries != 3 || bytes > 3*per || evictions != 1 {
		t.Fatalf("stats = (%d entries, %d bytes, %d evictions), want (3, <= %d, 1)",
			entries, bytes, evictions, 3*per)
	}

	// Churn: the accounted bytes stay under budget through heavy insertion.
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("churn%d", i), body)
		if _, b, _, _, _ := c.Stats(); b > 3*per {
			t.Fatalf("cache holds %d bytes > budget %d after insert %d", b, 3*per, i)
		}
	}
}

// A body larger than the whole budget is served but not retained, and
// replacing a key re-accounts its bytes instead of double counting.
func TestCacheOversizeAndReplace(t *testing.T) {
	c := NewCache(1024)
	c.Put("big", bytes.Repeat([]byte("x"), 2048))
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized body was retained")
	}
	c.Put("k", []byte("short"))
	_, before, _, _, _ := c.Stats()
	c.Put("k", []byte("a-longer-replacement-body"))
	entries, after, _, _, _ := c.Stats()
	if entries != 1 {
		t.Fatalf("replacement duplicated the entry: %d entries", entries)
	}
	want := before - int64(len("short")) + int64(len("a-longer-replacement-body"))
	if after != want {
		t.Fatalf("replacement accounted %d bytes, want %d", after, want)
	}
}

// The metrics registry renders deterministic Prometheus text exposition:
// families sorted, labeled series, cumulative histogram buckets.
func TestMetricsExposition(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("hxd_zeta_total", "", "z").Add(3)
	r.Counter("hxd_alpha_total", `kind="a"`, "a").Inc()
	r.Counter("hxd_alpha_total", `kind="b"`, "a").Add(2)
	r.GaugeFunc("hxd_depth", "", "queue depth", func() float64 { return 7 })
	h := r.Histogram("hxd_latency_seconds", `stage="queue"`, "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	want := []string{
		"# TYPE hxd_alpha_total counter",
		`hxd_alpha_total{kind="a"} 1`,
		`hxd_alpha_total{kind="b"} 2`,
		"hxd_depth 7",
		`hxd_latency_seconds_bucket{stage="queue",le="0.1"} 1`,
		`hxd_latency_seconds_bucket{stage="queue",le="1"} 2`,
		`hxd_latency_seconds_bucket{stage="queue",le="+Inf"} 3`,
		`hxd_latency_seconds_sum{stage="queue"} 5.55`,
		`hxd_latency_seconds_count{stage="queue"} 3`,
		"hxd_zeta_total 3",
	}
	last := -1
	for _, w := range want {
		i := strings.Index(out, w)
		if i < 0 {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
		if i < last {
			t.Fatalf("exposition out of order at %q:\n%s", w, out)
		}
		last = i
	}
	// Re-registering fetches the same instrument.
	if c := r.Counter("hxd_alpha_total", `kind="a"`, "a"); c.Value() != 1 {
		t.Fatalf("re-registration created a fresh counter (value %d)", c.Value())
	}
}
