// Package runner executes experiment sweeps on a worker pool. It is the
// layer between the simulators and the command-line tools / benchmark
// harness: callers describe a sweep as a list of jobs, and the pool runs
// them on N workers with deterministic per-job RNG seeding, so results are
// bit-identical regardless of worker count or scheduling order. Every
// experiment that more than one surface runs (hxsim, hxalloc, hxd, the
// paper benchmarks, the examples) is defined here once — its seeds,
// defaults, aggregation and summary statistics — and the surfaces only
// format the result.
//
// The pool also caches built clusters (topology + compiled network +
// routing table) by name and size: compilation and BFS distance vectors are
// shared across all jobs of a sweep, which is safe because simcore.Compiled
// is immutable and routing.Table publishes vectors atomically.
package runner

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hammingmesh/internal/core"
	"hammingmesh/internal/obs"
)

// Job is one unit of work in a sweep.
type Job struct {
	// Name labels the job in results (for error reporting and printing).
	Name string
	// Run executes the job. It must not share mutable state with other
	// jobs; shared read-only state (clusters, tables) is fine.
	Run func(ctx *Ctx) (any, error)
}

// Ctx carries the per-job deterministic execution context.
type Ctx struct {
	// Seed is a deterministic per-job seed derived from the pool's base
	// seed and the job index (independent of worker count).
	Seed int64
}

// Result is the outcome of one job, in submission order.
type Result struct {
	Name  string
	Value any
	Err   error
}

// Pool is a fixed-size worker pool with a shared cluster cache. A Pool is
// safe for concurrent use.
//
// The cluster cache is unbounded by default (every built topology stays
// for the pool's lifetime — the right call for one-shot CLI sweeps). A
// long-lived pool (the hxd daemon) bounds it with SetClusterBudget: the
// cache then evicts least-recently-used clusters so that the estimated
// resident bytes of *cached* entries (core.Cluster.MemoryBytes, re-read on
// every access because routing tables warm lazily) never exceed the
// budget. Eviction only forgets the cache entry — clusters already handed
// out stay valid (they are immutable), and a later request for an evicted
// key rebuilds the identical cluster deterministically.
type Pool struct {
	workers  int
	baseSeed int64

	mu       sync.Mutex
	clusters map[clusterKey]*clusterSlot
	lru      *list.List // of *clusterSlot; front = most recently used
	budget   int64      // cluster-cache byte budget; <= 0 means unbounded
	evicted  int64

	// Observability (EnableObs): nil obsReg means instrumentation is off
	// and the hot paths skip it entirely (obs contract). queued/active are
	// live job counts read by gauge functions at scrape time.
	obsReg         *obs.Registry
	queued, active atomic.Int64
	jobsTotal      *obs.Counter
	jobErrors      *obs.Counter
	cacheHits      *obs.Counter
	cacheHitBytes  *obs.Counter
	jobSeconds     *obs.Histogram
}

type clusterKey struct {
	name string
	size core.ClusterSize
}

type clusterSlot struct {
	key  clusterKey
	elem *list.Element // nil once evicted
	size int64
	// built is set under the pool mutex after once completes, so the
	// accounting sweep may read c/err for any slot with built == true.
	built bool
	once  sync.Once
	c     *core.Cluster
	err   error
}

// New creates a pool with the given worker count (<= 0 means GOMAXPROCS).
func New(workers int) *Pool { return NewSeeded(workers, 1) }

// NewSeeded creates a pool whose per-job seeds derive from baseSeed.
func NewSeeded(workers int, baseSeed int64) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers:  workers,
		baseSeed: baseSeed,
		clusters: make(map[clusterKey]*clusterSlot),
		lru:      list.New(),
	}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// EnableObs registers the pool's instruments into reg and starts
// recording: jobs executed and errored, per-job wall-clock latency,
// cluster-cache hits and hit-bytes, and live queue-depth/active-job
// gauges. Call once at setup (cmd/hxd passes obs.Default()); the pool
// also hands reg to the simulation engines it drives, so engine series
// land in the same scrape. Never enabling it keeps the pool's hot path
// free of instrumentation (obs contract).
func (p *Pool) EnableObs(reg *obs.Registry) {
	p.obsReg = reg
	p.jobsTotal = reg.Counter("runner_jobs_total", "", "jobs executed by the pool")
	p.jobErrors = reg.Counter("runner_job_errors_total", "", "jobs that returned an error")
	p.cacheHits = reg.Counter("runner_cluster_cache_hits_total", "", "cluster requests served from the cache")
	p.cacheHitBytes = reg.Counter("runner_cluster_cache_hit_bytes_total", "", "estimated bytes of cached clusters served without rebuilding")
	p.jobSeconds = reg.Histogram("runner_job_seconds", "", "per-job wall-clock latency",
		[]float64{0.0005, 0.002, 0.01, 0.05, 0.2, 1, 5, 20})
	reg.GaugeFunc("runner_queued_jobs", "", "jobs submitted and not yet started", func() float64 {
		return float64(p.queued.Load())
	})
	reg.GaugeFunc("runner_active_jobs", "", "jobs currently executing on workers", func() float64 {
		return float64(p.active.Load())
	})
}

// Obs returns the registry EnableObs installed (nil when off); sweep
// drivers hand it to the engines they run.
func (p *Pool) Obs() *obs.Registry { return p.obsReg }

// SetClusterBudget bounds the cluster cache to approximately `bytes` of
// estimated resident memory (<= 0 restores the unbounded default). The
// bound is enforced on every Cluster access: cached entries are re-sized
// (routing tables grow as they warm) and least-recently-used clusters are
// dropped until the cached total fits — including, if a single cluster
// alone exceeds the budget, that cluster itself, which is then served but
// not retained.
func (p *Pool) SetClusterBudget(bytes int64) {
	p.mu.Lock()
	p.budget = bytes
	p.accountLocked()
	p.mu.Unlock()
}

// CacheStats reports the cluster cache occupancy: cached entries, their
// estimated resident bytes (measured now, budget or not), and the
// cumulative eviction count.
func (p *Pool) CacheStats() (entries int, bytes int64, evictions int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len(), p.sizeLocked(), p.evicted
}

// Cluster returns the cached cluster for (name, size), building it on
// first use. Concurrent callers for the same key share one build. Under a
// SetClusterBudget bound the access also refreshes the LRU order and
// evicts over-budget entries.
func (p *Pool) Cluster(name string, size core.ClusterSize) (*core.Cluster, error) {
	key := clusterKey{name, size}
	p.mu.Lock()
	slot, ok := p.clusters[key]
	if !ok {
		slot = &clusterSlot{key: key}
		slot.elem = p.lru.PushFront(slot)
		p.clusters[key] = slot
	} else if slot.elem != nil {
		p.lru.MoveToFront(slot.elem)
	}
	hit := ok && slot.built && slot.err == nil
	p.mu.Unlock()
	if hit && p.obsReg != nil {
		p.cacheHits.Inc()
		p.cacheHitBytes.Add(slot.c.MemoryBytes())
	}
	slot.once.Do(func() { slot.c, slot.err = core.NewByName(name, size) })
	p.mu.Lock()
	slot.built = true
	if p.budget > 0 {
		p.accountLocked()
	}
	p.mu.Unlock()
	return slot.c, slot.err
}

// sizeLocked re-estimates every built cached cluster's size (routing
// tables warm lazily) and returns the cached total. Caller holds p.mu.
func (p *Pool) sizeLocked() int64 {
	total := int64(0)
	for e := p.lru.Front(); e != nil; e = e.Next() {
		s := e.Value.(*clusterSlot)
		if s.built && s.err == nil {
			s.size = s.c.MemoryBytes()
		}
		total += s.size
	}
	return total
}

// accountLocked evicts from the LRU tail until the cached total fits the
// budget. Caller holds p.mu; with no budget set it is a no-op.
func (p *Pool) accountLocked() {
	if p.budget <= 0 {
		return
	}
	total := p.sizeLocked()
	for total > p.budget && p.lru.Len() > 0 {
		s := p.lru.Remove(p.lru.Back()).(*clusterSlot)
		s.elem = nil
		delete(p.clusters, s.key)
		total -= s.size
		p.evicted++
	}
}

// splitmix64 is the SplitMix64 finalizer; it decorrelates consecutive job
// indexes into independent seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// JobSeed returns the deterministic seed of job index i under base seed s.
func JobSeed(baseSeed int64, i int) int64 {
	return int64(splitmix64(uint64(baseSeed)*0x9e3779b97f4a7c15 + uint64(i)))
}

// Run executes the jobs on the pool's workers and returns their results in
// submission order. It blocks until every job finishes; job errors are
// reported per-result, not returned.
func (p *Pool) Run(jobs []Job) []Result { return p.RunCtx(context.Background(), jobs) }

// RunCtx is Run with cancellation: once ctx is done, jobs not yet handed
// to a worker are not started — their results carry ctx.Err() — while
// jobs already executing run to completion. An interrupted sweep therefore
// stops after the in-flight jobs instead of draining the whole grid,
// which is what makes Ctrl-C on a journaled multi-hour sweep prompt: the
// completed points are on disk and the rest of the grid is skipped.
func (p *Pool) RunCtx(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := p.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	o := p.obsReg != nil
	if o {
		p.queued.Add(int64(len(jobs)))
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				job := jobs[i]
				if o {
					p.queued.Add(-1)
					p.active.Add(1)
				}
				start := time.Now()
				v, err := job.Run(&Ctx{Seed: JobSeed(p.baseSeed, i)})
				results[i] = Result{Name: job.Name, Value: v, Err: err}
				if o {
					p.active.Add(-1)
					p.jobsTotal.Inc()
					if err != nil {
						p.jobErrors.Inc()
					}
					p.jobSeconds.Observe(time.Since(start).Seconds())
				}
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := range jobs {
		// next is unbuffered: a successful send means a worker took the
		// job, so every index not sent is genuinely not started.
		select {
		case next <- i:
		case <-done:
			for j := i; j < len(jobs); j++ {
				results[j] = Result{Name: jobs[j].Name, Err: ctx.Err()}
			}
			if o {
				p.queued.Add(-int64(len(jobs) - i))
			}
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return results
}

// FirstErr returns the first job error in submission order, or nil.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("runner: job %q: %w", r.Name, r.Err)
		}
	}
	return nil
}

// Float64s extracts float64 job values, failing on the first job error or
// non-float value.
func Float64s(results []Result) ([]float64, error) {
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]float64, len(results))
	for i, r := range results {
		v, ok := r.Value.(float64)
		if !ok {
			return nil, fmt.Errorf("runner: job %q returned %T, want float64", r.Name, r.Value)
		}
		out[i] = v
	}
	return out, nil
}
