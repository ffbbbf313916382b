package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hammingmesh/internal/core"
	"hammingmesh/internal/serve"
)

// servePlan is serve-mixed's request script. Each pass is two streams of
// requests; with two clients each runs one stream as a closed loop (the
// next request goes out when the last reply is in), with one client it
// runs both. Per stream and pass the mix is fixed: 50% repeats of a
// 16-request hot set primed during set-up (cache hits), 45% distinct cheap
// misses and 5% distinct heavy misses, shuffled by the seed.
type servePlan struct {
	seed    int64
	toy     bool
	hot     [][]byte // hot-set request bodies
	perHot  int      // hot requests per stream and pass
	cheap   []func(u, a int) serve.Request
	heavy   []func(u int) serve.Request
	perKind int // requests per cheap kind per stream and pass
}

const streams = 2

// sreq is one scripted request.
type sreq struct {
	body []byte
	hot  int // index into the hot set; -1 for a miss
	name string
}

func newServePlan(o *options) *servePlan {
	p := &servePlan{seed: o.seed, toy: o.smoke}
	// Misses draw seeds from one range and hot requests from another, and
	// the seed-inert allreduce kind differs by bytes (hot ≡ 0, misses ≡ 8
	// mod 16), so every scripted miss has its own content address.
	hotSeed := int64(1<<59 | splitmix(uint64(o.seed))>>36<<24)
	missSeed := int64(1<<60 | splitmix(uint64(o.seed)^0x5eed)>>36<<24)
	req := func(kind, size string, seed, bytes int64) serve.Request {
		return serve.Request{Kind: kind, Size: size, Seed: seed, Bytes: bytes}
	}
	packetBytes := []int64{16384, 32768, 65536}
	var hot []serve.Request
	if p.toy {
		hot = []serve.Request{req("alltoall_flow", "tiny", hotSeed, 0), req("alltoall_packet", "tiny", hotSeed+1, 16384),
			req("permutation", "tiny", hotSeed+2, 16384), req("allreduce", "tiny", 0, 131072),
			{Kind: "sched", Size: "tiny", Seed: hotSeed + 3, Jobs: 20, Trials: 1}, req("alltoall_flow", "tiny", hotSeed+4, 0)}
		p.perHot, p.perKind = 6, 1
	} else {
		for i := range 3 {
			hot = append(hot, req("alltoall_flow", "small", hotSeed+int64(i), 0),
				req("alltoall_packet", "tiny", hotSeed+3+int64(i), packetBytes[i]),
				req("permutation", "tiny", hotSeed+6+int64(i), packetBytes[i]))
		}
		hot = append(hot, req("alltoall_flow", "tiny", hotSeed+9, 0),
			req("allreduce", "tiny", 0, 131072), req("allreduce", "tiny", 0, 131072+16),
			req("sched", "small", hotSeed+12, 0), req("sched", "small", hotSeed+13, 0),
			req("resilience", "tiny", hotSeed+14, 0), req("resilience", "tiny", hotSeed+15, 0))
		p.perHot, p.perKind = 50, 9
	}
	for _, r := range hot {
		p.hot = append(p.hot, mustJSON(r))
	}
	cheapSize := "small"
	if p.toy {
		cheapSize = "tiny"
	}
	p.cheap = []func(u, a int) serve.Request{
		func(u, a int) serve.Request { return req("allreduce", "tiny", 0, 49160+16*int64(a)) },
		func(u, a int) serve.Request {
			return req("alltoall_packet", "tiny", missSeed+int64(u), packetBytes[u%3])
		},
		func(u, a int) serve.Request { return req("permutation", "tiny", missSeed+int64(u), packetBytes[u%3]) },
		func(u, a int) serve.Request { return req("alltoall_flow", cheapSize, missSeed+int64(u), 0) },
		func(u, a int) serve.Request {
			if p.toy {
				return serve.Request{Kind: "sched", Size: "tiny", Seed: missSeed + int64(u), Jobs: 20, Trials: 1}
			}
			return req("sched", "small", missSeed+int64(u), 0)
		},
	}
	if p.toy {
		p.cheap = p.cheap[:3]
		p.heavy = []func(u int) serve.Request{
			func(u int) serve.Request {
				return serve.Request{Kind: "permutation", Size: "tiny", Seed: missSeed + int64(u), Perms: 4}
			},
		}
	} else {
		p.heavy = []func(u int) serve.Request{
			func(u int) serve.Request { return req("permutation", "small", missSeed+int64(u), 65536) },
			func(u int) serve.Request { return req("resilience", "tiny", missSeed+int64(u), 0) },
			func(u int) serve.Request { return req("permutation", "small", missSeed+int64(u), 65536) },
			func(u int) serve.Request { return req("resilience", "tiny", missSeed+int64(u), 0) },
			func(u int) serve.Request { return req("permutation", "small", missSeed+int64(u), 65536) },
		}
	}
	return p
}

// perStream is the request count of one stream in one pass.
func (p *servePlan) perStream() int { return p.perHot + p.perKind*len(p.cheap) + len(p.heavy) }

// pass returns pass k's streams. Every miss gets a unique index u (and the
// allreduce misses a unique index a), so no miss repeats within a run.
func (p *servePlan) pass(k int) [][]sreq {
	out := make([][]sreq, streams)
	for s := range out {
		idx := k*streams + s
		rng := rand.New(rand.NewSource(int64(splitmix(uint64(p.seed)*31 + uint64(idx)))))
		var reqs []sreq
		for i := range p.perHot {
			h := i % len(p.hot)
			reqs = append(reqs, sreq{body: p.hot[h], hot: h, name: "hot"})
		}
		u := idx * p.perStream()
		for _, mk := range p.cheap {
			for i := range p.perKind {
				r := mk(u+len(reqs), idx*p.perKind+i)
				reqs = append(reqs, sreq{body: mustJSON(r), hot: -1, name: r.Kind + "/" + r.Size})
			}
		}
		// Alternate which heavy kind gets the extra slot between streams.
		for i := range p.heavy {
			r := p.heavy[(i+idx)%len(p.heavy)](u + len(reqs))
			reqs = append(reqs, sreq{body: mustJSON(r), hot: -1, name: r.Kind + "/" + r.Size})
		}
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		out[s] = reqs
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // fixed request structs always marshal
	}
	return b
}

// splitmix is the SplitMix64 finalizer: it spreads a seed over 64 bits.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// client is one closed-loop connection to hxd.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: stepTimeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one request's outcome as the client saw it.
type reply struct {
	status                      int
	cache                       string
	queueNs, computeNs, totalNs float64
	body                        []byte
	ms                          float64
	err                         error
}

func (c *client) post(body []byte) reply {
	start := time.Now()
	resp, err := c.http.Post(c.base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, ms: ms(time.Since(start))}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	rep := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Hxd-Cache"), body: b, err: err, ms: ms(time.Since(start))}
	num := func(h string) float64 { v, _ := strconv.ParseFloat(resp.Header.Get(h), 64); return v }
	rep.queueNs, rep.computeNs, rep.totalNs = num("X-Hxd-Queue-Ns"), num("X-Hxd-Compute-Ns"), num("X-Hxd-Total-Ns")
	return rep
}

// runServe runs serve-mixed: set-up (build the programs, spawn hxd, wait
// for /healthz, prime the hot set), repeated, then closed-loop passes
// until the run's time is up. A traced run makes one pass, reading hxd's
// own view from headers and /metrics, and then replays the same requests
// in process.
func runServe(o *options) *result {
	r := newResult("serve-mixed")
	defer r.finish()
	plan := newServePlan(o)
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var hotBodies [][]byte
	for range o.setups() {
		if d != nil {
			d.stop()
			d = nil
		}
		start := time.Now()
		err := buildBinaries(o.root, o.binDir)
		if err == nil {
			d, err = startDaemon(o.bin("hxd"), o.work, o.workers)
		}
		if err != nil {
			r.Attempted++
			r.Failed++
			r.fail("set-up: %v", err)
			return r
		}
		c := newClient(d.base)
		hotBodies = make([][]byte, len(plan.hot))
		for i, body := range plan.hot {
			rep := c.post(body)
			r.Attempted++
			if rep.err != nil || rep.status != http.StatusOK || rep.cache != "miss" {
				r.Failed++
				r.fail("set-up: priming hot request %d: status %d cache %q %v: %s", i, rep.status, rep.cache, rep.err, rep.body)
			}
			hotBodies[i] = rep.body
		}
		c.close()
		r.SetupS = append(r.SetupS, time.Since(start).Seconds())
	}

	clients := make([]*client, o.workers)
	for i := range clients {
		clients[i] = newClient(d.base)
		defer clients[i].close()
	}
	var before series
	if o.trace {
		before, _ = d.metrics()
	}
	var first [][]reply
	var firstReqs [][]sreq
	corrupt := o.corruptHit
	start := time.Now()
	r.RefS = append(r.RefS, o.refTime(setupRef))
	for k := 0; k == 0 || (!o.trace && time.Since(start) < o.seconds); k++ {
		reqs := plan.pass(k)
		replies := make([][]reply, len(reqs))
		pstart := time.Now()
		peak := d.watchRSS()
		var wg sync.WaitGroup
		for ci, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := ci; s < len(reqs); s += len(clients) {
					replies[s] = make([]reply, len(reqs[s]))
					for j, q := range reqs[s] {
						replies[s][j] = c.post(q.body)
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(pstart)
		p := pass{WallS: wall.Seconds(), PeakRSSMB: peak()}
		r.RefS = append(r.RefS, o.refTime(wall/10))
		if p.PeakRSSMB == 0 {
			r.fail("pass %d: could not read hxd's resident set", k+1)
		}
		for s := range reqs {
			for j, q := range reqs[s] {
				rep := &replies[s][j]
				r.Attempted++
				failed := rep.err != nil || rep.status != http.StatusOK
				p.Ops = append(p.Ops, op{Name: q.name, Ms: rep.ms, Cached: q.hot >= 0, Failed: failed})
				if failed {
					r.Failed++
					r.fail("pass %d: %s: status %d %v: %s", k+1, q.body, rep.status, rep.err, rep.body)
					continue
				}
				want := "miss"
				if q.hot >= 0 {
					want = "hit"
				}
				if rep.cache != want {
					r.fail("pass %d: %s: X-Hxd-Cache %q, want %q", k+1, q.body, rep.cache, want)
				}
				if q.hot < 0 {
					continue
				}
				if corrupt {
					rep.body = append([]byte(nil), rep.body...)
					rep.body[0] ^= 0xff
					corrupt = false
				}
				if !bytes.Equal(rep.body, hotBodies[q.hot]) {
					r.fail("pass %d: hit body of hot request %d differs from its miss body", k+1, q.hot)
				}
			}
		}
		r.Passes = append(r.Passes, p)
		if first == nil {
			first, firstReqs = replies, reqs
		}
	}

	outs := map[string][]byte{}
	var names []string
	for i, b := range hotBodies {
		names = append(names, fmt.Sprintf("hot%d", i))
		outs[names[len(names)-1]] = b
	}
	for s := range first {
		for j := range first[s] {
			names = append(names, fmt.Sprintf("s%d.%d", s, j))
			outs[names[len(names)-1]] = first[s][j].body
		}
	}
	o.checkDigest(r, digest(names, outs))

	if !o.trace {
		d.stop()
		d = nil
		r.setEndToEnd()
		r.Extra["hit_p50_ms"] = metric{median(r.opMs(func(o op) bool { return o.Cached })), "ms"}
		r.Extra["miss_p50_ms"] = metric{median(r.opMs(func(o op) bool { return !o.Cached })), "ms"}
		all := r.opMs(func(op) bool { return true })
		if p, ok := tailPercentile(len(all)); ok {
			r.Extra[fmt.Sprintf("p%g_ms", p)] = metric{percentile(all, p), "ms"}
		}
		r.Extra["requests"] = metric{float64(len(all)), "count"}
		return r
	}

	after, err := d.metrics()
	d.stop()
	d = nil
	if err != nil {
		r.fail("scraping /metrics: %v", err)
		return r
	}
	observed := observedServe(before, after, firstReqs, first)
	replayUntil(o, r, func(rp *replayer, _ bool) error {
		for name, v := range observed {
			rp.counts[name] = v
		}
		return replayServe(rp, plan.hot, hotBodies, firstReqs, first)
	})
	return r
}

// observedServe is hxd's own view of one pass: stage latencies from the
// X-Hxd-* headers, batching and cache behaviour from /metrics deltas.
func observedServe(before, after series, reqs [][]sreq, replies [][]reply) map[string]float64 {
	var queue, compute, total []float64
	for s := range reqs {
		for j, q := range reqs[s] {
			rep := replies[s][j]
			total = append(total, rep.totalNs/1e6)
			if q.hot < 0 {
				queue, compute = append(queue, rep.queueNs/1e6), append(compute, rep.computeNs/1e6)
			}
		}
	}
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
	flushes := delta("hxd_batch_flushes_total")
	hits, misses := delta("hxd_cache_hits_total"), delta("hxd_cache_misses_total")
	waits := after[`hxd_batch_flushes_total{reason="wait"}`] - before[`hxd_batch_flushes_total{reason="wait"}`]
	return map[string]float64{
		"serve.queue_p50_ms":    median(queue),
		"serve.queue_p99_ms":    percentile(queue, 99),
		"serve.compute_p50_ms":  median(compute),
		"serve.server_p50_ms":   median(total),
		"serve.batch_mean":      delta("hxd_batched_requests_total") / max(flushes, 1),
		"serve.flush_wait_frac": waits / max(flushes, 1),
		"serve.hit_frac":        hits / max(hits+misses, 1),
	}
}

// replayServe redoes hxd's work for the hot set and one pass in process:
// canonicalize and hash every request, answer repeats from a map, build,
// compile and warm each cluster once, and compute every miss on a pool
// like hxd's. Every body must equal hxd's byte for byte.
func replayServe(rp *replayer, hot, hotBodies [][]byte, reqs [][]sreq, replies [][]reply) error {
	pool := rp.pool(1) // hxd's default -seed
	comp := serve.NewComputer(pool)
	cache := map[string][]byte{}
	clusters := map[string]*core.Cluster{}
	var canonUs, computeMs []float64
	do := func(body, want []byte) error {
		var req serve.Request
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		var cn *serve.Canon
		var key string
		d, err := rp.t.span("serve", "serve.Canonicalize+Key", func() (err error) {
			if cn, err = serve.Canonicalize(req); err == nil {
				key = cn.Key()
			}
			return err
		})
		if err != nil {
			return err
		}
		canonUs = append(canonUs, d*1e6)
		got, ok := cache[key]
		if !ok {
			id := cn.Topo + "/" + cn.Size
			if clusters[id] == nil {
				var c *core.Cluster
				if _, err := rp.t.span("core", "Pool.Cluster "+id, func() (err error) {
					c, err = pool.Cluster(cn.Topo, core.ClusterSize(cn.Size))
					return err
				}, "core.build_s"); err != nil {
					return err
				}
				rp.built(cn.Topo, c, true)
				clusters[id] = c
			}
			module, metric := kindLayer(cn.Kind)
			d, err := rp.t.span(module, "Computer.Compute "+cn.Kind, func() (err error) {
				got, err = comp.Compute(cn)
				return err
			}, metric)
			if err != nil {
				return err
			}
			computeMs = append(computeMs, d*1e3)
			cache[key] = got
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: in-process body differs from hxd's", body)
		}
		return nil
	}
	for i, body := range hot {
		if err := do(body, hotBodies[i]); err != nil {
			return err
		}
	}
	for s := range reqs {
		for j, q := range reqs[s] {
			if err := do(q.body, replies[s][j].body); err != nil {
				return err
			}
		}
	}
	for _, c := range clusters {
		rp.tableMB(c)
	}
	rp.counts["serve.canonicalize_us"] = median(canonUs)
	rp.counts["serve.compute_ms"] = median(computeMs)
	return nil
}

// kindLayer names the lane and per-layer metric of an hxd kind's compute.
func kindLayer(kind string) (module, metric string) {
	switch kind {
	case serve.KindAlltoallFlow:
		return "flowsim", "flowsim.alltoall_s"
	case serve.KindSched:
		return "sched", "sched.sweep_s"
	default:
		return "netsim", "netsim.run_s"
	}
}
