package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"hammingmesh/internal/journal"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/runner"
)

// Default knobs for the daemon; cmd/hxd exposes all of them as flags.
const (
	DefaultCacheBytes = 64 << 20
	DefaultQueueLen   = 256
)

// maxRequestBytes bounds a request body. The largest request the repo
// sends is under 1 KiB; the bound keeps a client from making the daemon
// buffer an arbitrary body, such as a million-entry mtbfs list.
const maxRequestBytes = 64 << 10

// errQueueFull is the backpressure signal: QueueLen requests already wait
// for the compute slot, the handler answers 429 + Retry-After.
var errQueueFull = errors.New("serve: compute queue full")

// Config configures a Server.
type Config struct {
	// Pool is the shared runner pool experiments execute on. Required
	// unless Compute is set.
	Pool *runner.Pool
	// CacheBytes bounds the result cache (<= 0 uses DefaultCacheBytes;
	// use NewCache directly for a disabled cache in tests).
	CacheBytes int64
	// QueueLen bounds the requests waiting for the compute slot; beyond
	// it requests are rejected with 429 (<= 0 uses DefaultQueueLen).
	QueueLen int
	// Compute overrides the per-request computation (tests); when nil,
	// a Computer over Pool is used.
	Compute func(*Canon) ([]byte, error)
	// Registry is the metrics registry the server registers into; nil
	// builds a private one. cmd/hxd passes obs.Default() so daemon, pool
	// and engine series land in one /metrics scrape; tests leave it nil
	// for isolation.
	Registry *obs.Registry
	// Pprof mounts net/http/pprof handlers under /debug/pprof/ when set.
	Pprof bool
	// JournalDir enables the durable job journal (cmd/hxd -journal-dir):
	// accepted requests and computed results are appended to a crash-safe
	// journal there, and on restart the result cache is rewarmed from
	// journaled results while accepted-but-unserved requests are re-run
	// through the compute slot. Empty disables journaling entirely.
	JournalDir string
	// JournalOptions tunes the journal (tests: NoSync and crash plans).
	// Its Obs field is overridden with the server registry.
	JournalOptions journal.Options
}

// call is one in-flight computation that concurrent identical requests
// attach to (singleflight): the first arrival is the leader and runs the
// computation; every later arrival with the same content address waits on
// done and reuses the result.
type call struct {
	done chan struct{}
	body []byte
	err  error

	queueNs   int64
	computeNs int64
}

// Server is the hxd daemon core: canonicalize → content address → cache
// lookup → singleflight → compute on the pool, one request at a time. It
// is an http.Handler serving POST /v1/experiments, GET /metrics and
// GET /healthz.
type Server struct {
	cache   *Cache
	compute func(*Canon) ([]byte, error)
	metrics *obs.Registry
	mux     *http.ServeMux

	// admit holds one token per admitted computation: the one holding
	// slot plus up to QueueLen waiting for it. A miss that finds admit
	// full is rejected with 429. slot is the compute slot; a channel, so
	// waiters take it in arrival order.
	admit chan struct{}
	slot  chan struct{}

	mu       sync.Mutex
	inflight map[string]*call
	// active counts the handlers that registered an inflight call, for
	// Close; it is incremented under mu.
	active sync.WaitGroup

	journal  *jobJournal // nil: journaling off
	replayWG sync.WaitGroup
	// ReplayedResults and ReplayedPending report what the journal restart
	// recovery did: results rewarmed into the cache and accepted requests
	// re-run through the compute slot. Zero without a journal.
	ReplayedResults, ReplayedPending int

	hits, misses, coalesced, rejected, computations, errored *obs.Counter
	journalErrors                                            *obs.Counter
	queueHist, computeHist, totalHist                        *obs.Histogram
}

// New builds a Server. Call Close to drain it. With Config.JournalDir set
// it also opens (and if needed recovers) the durable job journal before
// serving: journaled results rewarm the cache synchronously, and
// accepted-but-unserved requests replay through the compute slot in the
// background (WaitReplay blocks until they finish).
func New(cfg Config) (*Server, error) {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	compute := cfg.Compute
	if compute == nil {
		compute = NewComputer(cfg.Pool).Compute
	}

	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cache:    NewCache(cfg.CacheBytes),
		compute:  compute,
		metrics:  reg,
		mux:      http.NewServeMux(),
		admit:    make(chan struct{}, cfg.QueueLen+1),
		slot:     make(chan struct{}, 1),
		inflight: make(map[string]*call),

		hits:          reg.Counter("hxd_cache_hits_total", "", "requests served from the result cache"),
		misses:        reg.Counter("hxd_cache_misses_total", "", "requests that had to compute"),
		coalesced:     reg.Counter("hxd_coalesced_total", "", "requests that attached to an identical in-flight computation"),
		rejected:      reg.Counter("hxd_rejected_total", "", "requests rejected by queue backpressure"),
		computations:  reg.Counter("hxd_computations_total", "", "pool computations actually performed"),
		errored:       reg.Counter("hxd_errors_total", "", "computations that returned an error"),
		journalErrors: reg.Counter("hxd_journal_errors_total", "", "job-journal appends that failed"),
	}

	var pendingReplay map[string]*Canon
	if cfg.JournalDir != "" {
		o := cfg.JournalOptions
		o.Obs = reg
		jj, pending, results, err := openJobJournal(cfg.JournalDir, o)
		if err != nil {
			return nil, fmt.Errorf("serve: open job journal: %w", err)
		}
		s.journal = jj
		for key, body := range results {
			s.cache.Put(key, body)
		}
		s.ReplayedResults = len(results)
		s.ReplayedPending = len(pending)
		pendingReplay = pending
		reg.Counter("hxd_journal_results_rewarmed_total", "", "journaled results loaded into the cache at startup").Add(int64(len(results)))
		reg.Counter("hxd_journal_pending_replayed_total", "", "accepted-but-unserved requests re-run at startup").Add(int64(len(pending)))
	}
	latBuckets := []float64{0.0005, 0.002, 0.01, 0.05, 0.2, 1, 5, 20}
	s.queueHist = reg.Histogram("hxd_stage_seconds", `stage="queue"`, "per-stage request latency", latBuckets)
	s.computeHist = reg.Histogram("hxd_stage_seconds", `stage="compute"`, "per-stage request latency", latBuckets)
	s.totalHist = reg.Histogram("hxd_stage_seconds", `stage="total"`, "per-stage request latency", latBuckets)

	if len(pendingReplay) > 0 {
		// Re-run accepted-but-unserved requests through the compute slot,
		// sequentially (each waits for an admission token, so replay never
		// trips the queue's backpressure) and in sorted key order
		// (deterministic recovery). The daemon serves normally meanwhile.
		s.replayWG.Add(1)
		go func() {
			defer s.replayWG.Done()
			for _, key := range sortedKeys(pendingReplay) {
				var cl call
				s.admit <- struct{}{}
				s.run(pendingReplay[key], &cl)
				if cl.err != nil {
					s.errored.Inc()
					continue
				}
				s.cache.Put(key, cl.body)
				s.journalResult(key, cl.body)
			}
		}()
	}

	reg.GaugeFunc("hxd_queue_depth", "", "admitted requests waiting for the compute slot", func() float64 {
		return float64(max(len(s.admit)-len(s.slot), 0))
	})
	reg.GaugeFunc("hxd_cache_entries", "", "entries in the result cache", func() float64 {
		entries, _, _, _, _ := s.cache.Stats()
		return float64(entries)
	})
	reg.GaugeFunc("hxd_cache_bytes", "", "accounted bytes in the result cache", func() float64 {
		_, bytes, _, _, _ := s.cache.Stats()
		return float64(bytes)
	})
	reg.GaugeFunc("hxd_cache_evictions", "", "entries evicted from the result cache", func() float64 {
		_, _, _, _, ev := s.cache.Stats()
		return float64(ev)
	})
	if pool := cfg.Pool; pool != nil {
		// Surface the pool's cluster-compilation cache (PR 7's
		// SetClusterBudget LRU) on the same scrape as the daemon series.
		reg.GaugeFunc("hxd_cluster_cache_entries", "", "compiled clusters held by the runner pool", func() float64 {
			entries, _, _ := pool.CacheStats()
			return float64(entries)
		})
		reg.GaugeFunc("hxd_cluster_cache_bytes", "", "estimated bytes of compiled clusters held by the runner pool", func() float64 {
			_, bytes, _ := pool.CacheStats()
			return float64(bytes)
		})
		reg.GaugeFunc("hxd_cluster_cache_evictions", "", "compiled clusters evicted from the runner pool cache", func() float64 {
			_, _, ev := pool.CacheStats()
			return float64(ev)
		})
	}

	s.mux.HandleFunc("POST /v1/experiments", s.handleExperiment)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.Render(w)
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// WaitReplay blocks until the journal restart recovery finished re-running
// accepted-but-unserved requests (immediately without a journal).
func (s *Server) WaitReplay() { s.replayWG.Wait() }

// run computes cn into cl once the compute slot is free, timing the wait
// for the slot and the computation. The caller holds an admission token;
// run returns it.
func (s *Server) run(cn *Canon, cl *call) {
	queued := time.Now()
	s.slot <- struct{}{}
	began := time.Now()
	cl.body, cl.err = s.compute(cn)
	cl.queueNs, cl.computeNs = began.Sub(queued).Nanoseconds(), time.Since(began).Nanoseconds()
	<-s.slot
	<-s.admit
}

// journalResult appends a computed result to the job journal (no-op
// without one). A failed append only degrades durability — the response
// is already correct — so it is counted, not propagated.
func (s *Server) journalResult(key string, body []byte) {
	if err := s.journal.result(key, body); err != nil {
		s.journalErrors.Inc()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close waits for the journal replay and every admitted request to
// finish, then seals the job journal. The graceful-shutdown order in
// cmd/hxd is http.Server.Shutdown first — no new requests — then Close.
// Safe to call more than once.
func (s *Server) Close() {
	s.replayWG.Wait()
	// Taking mu orders the active.Add of every request registered so far
	// before the Wait.
	s.mu.Lock()
	s.mu.Unlock()
	s.active.Wait()
	s.journal.close()
}

// Metrics exposes the registry (examples, tests).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// CacheStats exposes result-cache occupancy and traffic counters.
func (s *Server) CacheStats() (entries int, bytes, hits, misses, evictions int64) {
	return s.cache.Stats()
}

func (s *Server) countRequest(kind, status string) {
	s.metrics.Counter("hxd_requests_total",
		fmt.Sprintf("kind=%q,status=%q", kind, status), "experiment requests by kind and outcome").Inc()
}

func (s *Server) fail(w http.ResponseWriter, kind string, code int, err error) {
	status := "error"
	switch code {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		status = "bad_request"
	case http.StatusTooManyRequests:
		status = "rejected"
		w.Header().Set("Retry-After", "1")
	}
	s.countRequest(kind, status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.fail(w, "unknown", code, fmt.Errorf("decode request: %w", err))
		return
	}
	cn, err := Canonicalize(req)
	if err != nil {
		s.fail(w, req.Kind, http.StatusBadRequest, err)
		return
	}
	key := cn.Key()
	w.Header().Set("X-Hxd-Key", key)

	if body, ok := s.cache.Get(key); ok {
		s.hits.Inc()
		s.serve(w, cn.Kind, "hit", body, start, 0, 0)
		return
	}
	s.misses.Inc()

	s.mu.Lock()
	if cl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.coalesced.Inc()
		<-cl.done
		if cl.err != nil {
			s.failCompute(w, cn.Kind, cl.err)
			return
		}
		s.serve(w, cn.Kind, "coalesced", cl.body, start, cl.queueNs, cl.computeNs)
		return
	}
	cl := &call{done: make(chan struct{})}
	s.inflight[key] = cl
	s.active.Add(1)
	s.mu.Unlock()
	defer s.active.Done()

	select {
	case s.admit <- struct{}{}:
	default:
		cl.err = errQueueFull
		// Publish the failure before dropping the inflight slot so
		// attached followers observe it too.
		close(cl.done)
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		s.rejected.Inc()
		s.fail(w, cn.Kind, http.StatusTooManyRequests, errQueueFull)
		return
	}
	// The request is accepted: make it durable before the (possibly long)
	// computation, so a daemon killed mid-computation re-runs it on
	// restart. The response itself is synchronous, so a failed append only
	// loses durability for work the client has not been promised yet.
	if s.journal != nil {
		if err := s.journal.accept(cn); err != nil {
			s.journalErrors.Inc()
		}
	}
	s.run(cn, cl)
	s.computations.Inc()
	s.queueHist.Observe(float64(cl.queueNs) / 1e9)
	s.computeHist.Observe(float64(cl.computeNs) / 1e9)
	if cl.err == nil {
		// Fill the cache before releasing the inflight slot: a request
		// arriving in between finds the cached body instead of starting
		// a duplicate computation.
		s.cache.Put(key, cl.body)
		if s.journal != nil {
			s.journalResult(key, cl.body)
		}
	}
	close(cl.done)
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()

	if cl.err != nil {
		s.failCompute(w, cn.Kind, cl.err)
		return
	}
	s.serve(w, cn.Kind, "miss", cl.body, start, cl.queueNs, cl.computeNs)
}

func (s *Server) failCompute(w http.ResponseWriter, kind string, err error) {
	s.errored.Inc()
	code := http.StatusInternalServerError
	if errors.Is(err, errQueueFull) {
		code = http.StatusTooManyRequests
	}
	s.fail(w, kind, code, err)
}

// serve writes the result body — byte-identical across hit, miss and
// coalesced paths — with the cache status and stage latencies in headers.
func (s *Server) serve(w http.ResponseWriter, kind, cacheStatus string, body []byte, start time.Time, queueNs, computeNs int64) {
	s.countRequest(kind, "ok")
	total := time.Since(start)
	s.totalHist.Observe(total.Seconds())
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Hxd-Cache", cacheStatus)
	if queueNs > 0 || computeNs > 0 {
		h.Set("X-Hxd-Queue-Ns", fmt.Sprintf("%d", queueNs))
		h.Set("X-Hxd-Compute-Ns", fmt.Sprintf("%d", computeNs))
	}
	h.Set("X-Hxd-Total-Ns", fmt.Sprintf("%d", total.Nanoseconds()))
	w.Write(body)
}
