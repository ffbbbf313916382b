// Command hxd is the simulation-as-a-service daemon: a long-lived HTTP
// front-end over the repo's experiment entry points. Clients POST
// experiment requests as JSON to /v1/experiments; the daemon
// canonicalizes each request (defaults filled, inert options stripped),
// hashes it into a content address and serves repeats from a
// byte-accounted LRU result cache. Concurrent identical requests coalesce
// onto one in-flight computation, and distinct requests compute one at a
// time on the shared runner pool, with at most -queue of them waiting
// (beyond that they get 429). /metrics exposes Prometheus-style counters,
// gauges and latency histograms; /healthz answers liveness probes.
//
// Usage:
//
//	hxd -addr 127.0.0.1:8080 -workers 8 -cache-bytes 67108864
//	curl -s -X POST -d '{"kind":"alltoall_flow","topo":"hx2mesh","size":"tiny"}' \
//	    http://127.0.0.1:8080/v1/experiments
//
// The cache-status of every response rides in the X-Hxd-Cache header
// (miss | hit | coalesced) next to the content address (X-Hxd-Key) and
// per-stage latencies, so response bodies stay byte-identical across
// cache hits and fresh computations. On SIGINT/SIGTERM the daemon drains
// gracefully: in-flight requests complete, new ones are refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hammingmesh/internal/journal"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a client trickling them cannot hold a connection open.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port, printed on startup)")
	workers := flag.Int("workers", 0, "runner pool workers (0 = GOMAXPROCS; results are worker-count invariant)")
	seed := flag.Int64("seed", 1, "base seed of the runner pool's deterministic per-job seeds")
	cacheBytes := flag.Int64("cache-bytes", serve.DefaultCacheBytes, "result cache budget in bytes")
	clusterBytes := flag.Int64("cluster-cache-bytes", 0, "cluster cache budget in bytes (0 = unbounded)")
	queueLen := flag.Int("queue", serve.DefaultQueueLen, "bound on requests waiting to compute; beyond it requests get 429")
	drainWait := flag.Duration("drain-wait", 30*time.Second, "graceful-shutdown deadline for in-flight requests")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	journalDir := flag.String("journal-dir", "", "durable job journal directory: accepted requests and results survive a crash; on restart results rewarm the cache and unserved requests re-run")
	journalCrash := flag.String("journal-crash", "", "crash-injection plan <point>:<n> — die mid-write at that journal boundary (testing; see internal/journal)")
	flag.Parse()

	pool := runner.NewSeeded(*workers, *seed)
	if *clusterBytes > 0 {
		pool.SetClusterBudget(*clusterBytes)
	}
	// The process default registry unifies the scrape: daemon request
	// counters, pool job/cache instruments and engine series all render on
	// the one /metrics page.
	reg := obs.Default()
	pool.EnableObs(reg)
	// A real process death at the boundary, not an in-process error: the
	// restart path must recover exactly as from a SIGKILL.
	crash, err := journal.ExitCrashPlan(*journalCrash)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hxd: %v\n", err)
		os.Exit(2)
	}
	s, err := serve.New(serve.Config{
		Pool:           pool,
		Registry:       reg,
		CacheBytes:     *cacheBytes,
		QueueLen:       *queueLen,
		Pprof:          *pprofFlag,
		JournalDir:     *journalDir,
		JournalOptions: journal.Options{Crash: crash},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hxd: %v\n", err)
		os.Exit(1)
	}
	if *journalDir != "" {
		fmt.Printf("hxd journal: %d results rewarmed, %d pending requests replaying\n",
			s.ReplayedResults, s.ReplayedPending)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hxd: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	// The actual address goes to stdout first thing so scripts (and the
	// smoke tests) can bind to :0 and parse the chosen port.
	fmt.Printf("hxd listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: s, ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("hxd: %v, draining\n", sig)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "hxd: serve: %v\n", err)
		os.Exit(1)
	}

	// Graceful drain: stop accepting, let in-flight handlers finish, then
	// wait for every admitted request and seal the journal.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hxd: shutdown: %v\n", err)
		s.Close()
		os.Exit(1)
	}
	s.Close()
	fmt.Println("hxd: drained, bye")
}
