package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRenderGolden pins the deterministic text exposition: families
// sorted by name, series in registration order, histogram buckets
// cumulative. Any change to the rendering is a contract change for
// every /metrics consumer and must update this golden.
func TestRenderGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zz_total", "", "last family by name")
	c.Add(7)
	r.Counter("aa_requests_total", `kind="b"`, "labeled counter").Add(2)
	r.Counter("aa_requests_total", `kind="a"`, "labeled counter").Inc()
	g := r.Gauge("mm_depth", "", "settable gauge")
	g.Set(3.5)
	r.GaugeFunc("mm_live", "", "gauge func", func() float64 { return 11 })
	h := r.Histogram("hh_seconds", "", "histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	r.Render(&sb)
	want := `# HELP aa_requests_total labeled counter
# TYPE aa_requests_total counter
aa_requests_total{kind="b"} 2
aa_requests_total{kind="a"} 1
# HELP hh_seconds histogram
# TYPE hh_seconds histogram
hh_seconds_bucket{le="0.1"} 1
hh_seconds_bucket{le="1"} 2
hh_seconds_bucket{le="+Inf"} 3
hh_seconds_sum 5.55
hh_seconds_count 3
# HELP mm_depth settable gauge
# TYPE mm_depth gauge
mm_depth 3.5
# HELP mm_live gauge func
# TYPE mm_live gauge
mm_live 11
# HELP zz_total last family by name
# TYPE zz_total counter
zz_total 7
`
	if got := sb.String(); got != want {
		t.Errorf("render mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	// Render twice: identical (determinism, no consumed state).
	var sb2 strings.Builder
	r.Render(&sb2)
	if sb2.String() != sb.String() {
		t.Errorf("second render differs from first")
	}
}

// TestRegistrationIdempotent verifies re-registering a (name, labels)
// pair returns the same instrument.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", `k="1"`, "h")
	b := r.Counter("x_total", `k="1"`, "h")
	if a != b {
		t.Fatalf("counter registration not idempotent")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("aliased counters diverged")
	}
	g1 := r.Gauge("y", "", "h")
	g2 := r.Gauge("y", "", "h")
	if g1 != g2 {
		t.Fatalf("gauge registration not idempotent")
	}
	h1 := r.Histogram("z_seconds", "", "h", []float64{1})
	h2 := r.Histogram("z_seconds", "", "h", []float64{1})
	if h1 != h2 {
		t.Fatalf("histogram registration not idempotent")
	}
}

// TestConcurrentInstruments hammers Inc/Observe/Set/registration/render
// from parallel goroutines; run under -race this pins the concurrency
// contract of the registry.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("par_total", "", "h")
	g := r.Gauge("par_gauge", "", "h")
	h := r.Histogram("par_seconds", "", "h", []float64{0.5})
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(w))
				h.Observe(float64(i%2) + 0.25)
				// Lazy labeled registration from multiple goroutines.
				r.Counter("par_lazy_total", `w="a"`, "h").Inc()
				if i%100 == 0 {
					var sb strings.Builder
					r.Render(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if v := g.Value(); v != float64(int(v)) || v < 0 || v >= workers {
		t.Errorf("gauge = %g, want one worker's id in [0, %d)", v, workers)
	}
	if got := r.Counter("par_lazy_total", `w="a"`, "h").Value(); got != workers*iters {
		t.Errorf("lazy counter = %d, want %d", got, workers*iters)
	}
}

// TestDefaultRegistry checks the process default registry is shared.
func TestDefaultRegistry(t *testing.T) {
	if Default() == nil || Default() != Default() {
		t.Fatalf("Default() must return one stable registry")
	}
}

// BenchmarkCounterInc documents the hot-path cost of a warm counter.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
