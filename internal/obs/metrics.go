// Package obs is the repository's dependency-free observability layer:
// a Prometheus-text-exposition metrics registry (promoted out of
// internal/serve, where PR 7 grew it for the daemon) and a deterministic
// flight recorder (trace.go) that exports Chrome trace-event JSON for
// Perfetto.
//
// The hard contract every instrumented layer honors: with instrumentation
// off (nil Registry / nil Recorder) the hot paths add zero allocations
// and results are bit-identical to the uninstrumented build; with
// instrumentation on, observers record but never perturb, so results stay
// bit-identical — the same discipline as sched's invariant observer.
// Instruments are lock-free atomics on the update path; the registry
// mutex is touched only at registration and render time, so engines keep
// plain per-run counters and flush them once per run.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a minimal Prometheus-text-exposition metrics registry —
// counters, gauges, gauge functions and histograms, optionally labeled.
// Families render sorted by name and series in registration order, so the
// output is deterministic. All instruments are safe for concurrent use,
// and registration is idempotent per (name, labels): re-registering
// fetches the existing instrument, so labeled counters can be created
// lazily per kind/status.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*metricFamily
}

type metricFamily struct {
	name, help, typ string
	keys            []string // label strings, registration order
	insts           map[string]any
	renders         map[string]func(w io.Writer)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*metricFamily)}
}

// defaultRegistry is the process-wide registry long-lived binaries (the
// hxd daemon) share, so daemon, pool and engine series land in one
// /metrics scrape. Tests and libraries use private registries.
var defaultRegistry = NewRegistry()

// Default returns the process default registry.
func Default() *Registry { return defaultRegistry }

// familyLocked returns the named family, creating it on first use; caller
// must hold r.mu.
func (r *Registry) familyLocked(name, help, typ string) *metricFamily {
	f, ok := r.fams[name]
	if !ok {
		f = &metricFamily{name: name, help: help, typ: typ,
			insts:   make(map[string]any),
			renders: make(map[string]func(io.Writer))}
		r.fams[name] = f
	}
	return f
}

func (f *metricFamily) add(labels string, inst any, render func(io.Writer)) {
	f.keys = append(f.keys, labels)
	f.insts[labels] = inst
	f.renders[labels] = render
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers (or fetches) the counter for the label string (e.g.
// `kind="alltoall_flow",status="ok"`; empty for an unlabeled series).
func (r *Registry) Counter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "counter")
	if inst, ok := f.insts[labels]; ok {
		return inst.(*Counter)
	}
	c := &Counter{}
	f.add(labels, c, func(w io.Writer) {
		fmt.Fprintf(w, "%s%s %d\n", name, bracized(labels), c.Value())
	})
	return c
}

// Gauge is a settable float64 (atomic on its bit pattern). Where a
// GaugeFunc reads live state at scrape time, a Gauge holds the last value
// an instrumented layer pushed — the right shape for per-run statistics
// flushed after each simulation.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or fetches) the settable gauge for the label string.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "gauge")
	if inst, ok := f.insts[labels]; ok {
		return inst.(*Gauge)
	}
	g := &Gauge{}
	f.add(labels, g, func(w io.Writer) {
		fmt.Fprintf(w, "%s%s %g\n", name, bracized(labels), g.Value())
	})
	return g
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "gauge")
	if _, ok := f.insts[labels]; ok {
		return
	}
	f.add(labels, fn, func(w io.Writer) {
		fmt.Fprintf(w, "%s%s %g\n", name, bracized(labels), fn())
	})
}

// Histogram counts observations into cumulative le-labeled buckets.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus +Inf at the end
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.add(v)
}

// Histogram registers (or fetches) the histogram for the label string,
// with the given upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "histogram")
	if inst, ok := f.insts[labels]; ok {
		return inst.(*Histogram)
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	f.add(labels, h, func(w io.Writer) {
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", name,
				bracized(joinLabels(labels, fmt.Sprintf(`le="%g"`, b))), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bracized(joinLabels(labels, `le="+Inf"`)), cum)
		fmt.Fprintf(w, "%s_sum%s %g\n", name, bracized(labels), h.sum.load())
		fmt.Fprintf(w, "%s_count%s %d\n", name, bracized(labels), cum)
	})
	return h
}

// Render writes the Prometheus text exposition of every registered
// metric, families sorted by name. The registry lock is held across the
// render (registration may happen lazily per request), so gauge functions
// must not call back into the registry.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.fams[n]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, k := range f.keys {
			f.renders[k](w)
		}
	}
}

// atomicFloat accumulates a float64 with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

func bracized(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}
