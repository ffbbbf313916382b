package main

import (
	"bytes"
	"os"
	"time"

	"hammingmesh/internal/obs"
)

// lanes are the Perfetto process lanes of a traced replay, one per module
// the replay calls into.
var lanes = []string{"core", "simcore", "routing", "netsim", "flowsim", "collective",
	"runner", "sched", "alloc", "journal", "serve"}

func lane(module string) int32 {
	for i, m := range lanes {
		if m == module {
			return int32(i + 1)
		}
	}
	panic("hxbench: unknown lane " + module)
}

// tracer records one traced replay: a span around every call the replay
// makes into a layer's public functions, and the per-layer time sums the
// spans add up to. Probe spans measure work the end-to-end run does not
// do (alternate engine paths, unjournaled twins of journaled sweeps);
// their time is kept apart so utilization stays about the real work.
type tracer struct {
	rec    *obs.Recorder
	t0     time.Time
	sums   map[string]float64
	probeS float64
}

func newTracer() *tracer {
	rec := obs.NewRecorder(1 << 15)
	for i, name := range lanes {
		rec.SetProcessName(int32(i+1), name)
	}
	return &tracer{rec: rec, t0: time.Now(), sums: map[string]float64{}}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// span runs fn as a span on module's lane, adds its duration to each
// named per-layer metric and returns the duration in seconds.
func (t *tracer) span(module, name string, fn func() error, metrics ...string) (float64, error) {
	start := t.now()
	err := fn()
	d := t.now() - start
	t.rec.Span(lane(module), 0, name, "", start, d)
	for _, m := range metrics {
		t.sums[m] += d / 1e6
	}
	return d / 1e6, err
}

// probe is span for work outside the end-to-end run's own.
func (t *tracer) probe(module, name string, fn func() error, metrics ...string) (float64, error) {
	d, err := t.span(module, name, fn, metrics...)
	t.probeS += d
	return d, err
}

// sample records a counter track on module's lane.
func (t *tracer) sample(module, name string, v float64) {
	t.rec.Counter(lane(module), 0, name, "value", t.now(), v)
}

func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	if err := t.rec.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// render returns the registry's current series.
func render(reg *obs.Registry) series {
	var buf bytes.Buffer
	reg.Render(&buf)
	return scrape(buf.String())
}

// layerMetrics turns one replay's span sums and registry counters into the
// per-layer metrics. The ones BENCHMARK.json lists, which every workload
// reports, go to metrics; timings of layers only some workloads use, and
// the workload-specific counts, go to extra. wall is the replay's own
// time, not counting probes.
func layerMetrics(t *tracer, s series, wall float64, workers int, counts map[string]float64) (metrics, extra map[string]metric) {
	busy := s.sum("runner_job_seconds_sum")
	metrics = map[string]metric{
		"core.build_s":              {t.sums["core.build_s"], "s"},
		"simcore.compile_s":         {t.sums["simcore.compile_s"], "s"},
		"flowsim.solve_s":           {t.sums["flowsim.alltoall_s"] + t.sums["flowsim.tenant_s"], "s"},
		"runner.busy_s":             {busy, "s"},
		"runner.utilization":        {busy / (wall * float64(workers)), "ratio"},
		"runner.jobs":               {s.sum("runner_jobs_total"), "count"},
		"runner.cluster_cache_hits": {s.sum("runner_cluster_cache_hits_total"), "count"},
		"flowsim.subflows":          {s.sum("flowsim_subflows_total"), "count"},
		"flowsim.heap_pops":         {s.sum("flowsim_heap_pops_total"), "count"},
		"netsim.events":             {s.sum("netsim_events_total"), "count"},
		"sched.decisions":           {s.sum("sched_decisions_total"), "count"},
		"journal.records":           {s.sum("journal_records_written_total"), "count"},
		"journal.bytes":             {s.sum("journal_bytes_written_total"), "B"},
	}
	for _, name := range []string{"routing.table_mb", "netsim.window_stalls", "serve.batch_mean", "serve.flush_wait_frac"} {
		metrics[name] = metric{counts[name], unitOf[name]}
	}
	extra = map[string]metric{
		"topo.build_s":  {t.sums["core.build_s"] - t.sums["simcore.compile_s"], "s"},
		"replay.wall_s": {wall, "s"},
	}
	for name, v := range t.sums {
		if _, ok := metrics[name]; !ok {
			extra[name] = metric{v, "s"}
		}
	}
	if run := t.sums["netsim.run_s"]; run > 0 {
		extra["netsim.events_per_s"] = metric{metrics["netsim.events"].Value / run, "1/s"}
	}
	for name, v := range counts {
		if _, ok := metrics[name]; !ok {
			extra[name] = metric{v, unitOf[name]}
		}
	}
	return metrics, extra
}

// unitOf gives the unit of every layer metric a replay counts outside the
// registry.
var unitOf = map[string]string{
	"routing.table_mb":         "MB",
	"netsim.window_stalls":     "count",
	"flowsim.tenant_solves":    "count",
	"flowsim.tenant_memo_hits": "count",
	"serve.batch_mean":         "count",
	"serve.flush_wait_frac":    "ratio",
	"serve.hit_frac":           "ratio",
	"serve.queue_p50_ms":       "ms",
	"serve.queue_p99_ms":       "ms",
	"serve.compute_p50_ms":     "ms",
	"serve.server_p50_ms":      "ms",
	"serve.canonicalize_us":    "us",
	"serve.compute_ms":         "ms",
}
