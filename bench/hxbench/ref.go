package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a share of a machine other programs
// use, and its speed drifts by tens of percent over minutes. The passes'
// wall times drift with it. So before the first pass and after every pass
// the harness times a fixed piece of reference work, and each pass's wall
// time is reported as a multiple of the mean of the two reference times
// around it (wall_ref). A change to the programs moves the pass time but
// not the reference, so the ratio follows the programs and not the host.
// Set-up time drifts the same way, so setup_s is the measured set-up time
// scaled by refNominal over the reference time taken right after set-up:
// seconds on a host where the reference takes refNominal.
//
// The reference work never changes: it is part of the benchmark, not of
// the programs it measures. It has the shape of their work: it builds a
// random graph out of many small allocations, runs breadth-first searches
// over it and sorts a slice, so it leans on the allocator, the caches and
// the branch predictor the way cluster builds and routing tables do.

const (
	// refNominal is the reference time on the 2-vCPU machine the benchmark
	// was written on, rounded.
	refNominal = 0.08 // s
	// setupRef is how long the reference after set-up runs at least: it
	// scales setup_s, so it takes more copies than the one after a short
	// pass.
	setupRef = 400 * time.Millisecond
)

// refSum collects the reference work's checksums, so the compiler cannot
// drop any of the work.
var refSum atomic.Int64

// refWork runs one copy of the reference work and returns its checksum.
func refWork(seed uint64) int {
	x := seed | 1
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	const n = 1 << 16
	adj := make([][]int32, n)
	for i := range adj {
		adj[i] = make([]int32, 0, 4)
	}
	for range 4 * n {
		a, b := int32(next()%n), int32(next()%n)
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	sum := 0
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := range int32(4) {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range dist {
			sum += int(d)
		}
	}
	keys := make([]uint64, 1<<18)
	for i := range keys {
		keys[i] = next()
	}
	slices.Sort(keys)
	return sum + int(keys[len(keys)/2]&1)
}

// refTime returns the reference time in seconds: how long one copy of the
// reference work takes on each of the workers the programs get, run at
// once. One timing of 80 ms or so varies by about 10% with the host's
// moment-to-moment speed, so refTime repeats the copies back to back until
// they have taken atLeast (a tenth of the pass before, or setupRef) and
// returns the mean.
// It then collects the garbage the work left, so the collector does not
// run during the next pass.
func (o *options) refTime(atLeast time.Duration) float64 {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < atLeast {
		var wg sync.WaitGroup
		for i := range o.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refSum.Add(int64(refWork(uint64(i + 1))))
			}()
		}
		wg.Wait()
		n++
	}
	d := time.Since(start).Seconds() / float64(n)
	runtime.GC()
	return d
}
