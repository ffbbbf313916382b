package netsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// This file is the conservative-parallel engine (Config.Shards > 1). See
// the package doc's "Parallel engine" section for the contract; the key
// structural facts the implementation leans on:
//
//   - Node/channel state is partitioned: shard s owns the contiguous node
//     range part.Bounds[s]:part.Bounds[s+1] and therefore a contiguous
//     range of s.channels (a channel is a port of its owning node). A
//     shard only ever executes events at its own nodes, so channel
//     mutation is race-free without locks.
//   - Flow and result accounting is coordinator-only: delivery events
//     never touch channel state (Sim.deliver), so they are classified out
//     of the shard queues at push time and processed single-threaded in a
//     "flow phase" at each window boundary, together with the injections
//     they trigger. That resolves the zero-delay delivery→injection
//     feedback exactly and keeps the injection sequence (event.seq)
//     shard-count independent.
//   - Every scheduled event is at least lookahead = min(port latency) +
//     switch latency after its cause (plus a positive serialization
//     delay), so events created during a window land strictly beyond the
//     window bound. Cross-shard arrivals buffer in per-pair mailboxes and
//     drain, in fixed shard order, at the barrier; consecutive window
//     bounds therefore advance by at least lookahead per window.
type parState struct {
	s         *Sim
	part      *simcore.Partition
	lookahead float64
	shards    []shard

	// flowQ holds pending delivery events (flow domain), popped in
	// canonical order by the coordinator's flow phase.
	flowQ calendarQueue

	// events is the global MaxEvents budget and the deterministic
	// Result.Events total: flow-phase events are added by the coordinator,
	// shard events per window (batched mid-window for runaway windows).
	events atomic.Int64

	wg sync.WaitGroup
}

type shard struct {
	par *parState
	id  int32

	q calendarQueue

	// mailOut[t] buffers arrivals at shard t's nodes scheduled by this
	// shard during the current window; drained at the barrier.
	mailOut [][]event
	// flowOut buffers delivery events discovered during the current
	// window; drained into par.flowQ at the barrier.
	flowOut []event

	bound chan float64
	err   error

	// Per-run instrumentation (obs): event counts by kind and windows in
	// which this shard had nothing below the bound. Shard-local during the
	// run; the coordinator reads them only after the final barrier
	// (finishParallel) and at metrics flush time.
	nArrive, nFree, stalls int64
}

// lookaheadOf is the conservative lookahead of the compiled network: the
// minimum event-scheduling delay between any two nodes. Zero (no ports)
// disables the parallel engine.
func lookaheadOf(c *simcore.Compiled, cfg Config) float64 {
	la := math.Inf(1)
	for i := range c.Ports {
		if d := c.Ports[i].Latency + cfg.LP.SwitchNS; d < la {
			la = d
		}
	}
	if math.IsInf(la, 1) {
		return 0
	}
	return la
}

func newParState(s *Sim, n int) *parState {
	p := &parState{s: s, part: s.comp.PartitionNodes(n), lookahead: lookaheadOf(s.comp, s.cfg)}
	n = p.part.NumShards
	span := 2*s.horizon + 1
	p.flowQ.init(span)
	p.shards = make([]shard, n)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.par = p
		sh.id = int32(i)
		sh.q.init(span)
		sh.mailOut = make([][]event, n)
	}
	return p
}

func (p *parState) reset() {
	p.events.Store(0)
	p.flowQ.reset()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.q.reset()
		sh.err = nil
		sh.nArrive, sh.nFree, sh.stalls = 0, 0, 0
		for t := range sh.mailOut {
			sh.mailOut[t] = sh.mailOut[t][:0]
		}
		sh.flowOut = sh.flowOut[:0]
	}
}

// routeInjection enqueues a freshly injected packet at its source's
// owning shard. Called only from the coordinator (setup and flow phase).
func (p *parState) routeInjection(e event) {
	p.shards[p.part.NodeShard[e.node()]].q.push(e)
}

// push classifies an event scheduled during a shard's window: deliveries
// go to the flow domain, arrivals at foreign nodes to the mailbox for
// the owning shard, everything else to the local queue. evFree events
// are always local — the freed channel belongs to a node of this shard.
func (sh *shard) push(e event) {
	if e.kind() == evArrive {
		if topo.NodeID(e.node()) == sh.par.s.flows[e.pkt.flow].Dst {
			sh.flowOut = append(sh.flowOut, e)
			return
		}
		if ts := sh.par.part.NodeShard[e.node()]; ts != sh.id {
			sh.mailOut[ts] = append(sh.mailOut[ts], e)
			return
		}
	}
	sh.q.push(e)
}

func (p *parState) worker(sh *shard) {
	for bound := range sh.bound {
		sh.runWindow(bound)
		p.wg.Done()
	}
}

// budgetBatch is how many events a shard processes between checks of the
// global MaxEvents budget within one window.
const budgetBatch = 1024

func (sh *shard) runWindow(bound float64) {
	s := sh.par.s
	x := exec{s: s, sh: sh}
	var local, n int64
	firstT := math.NaN()
	var lastT float64
	var ev event
	for {
		if !sh.q.popIfInto(bound, &ev) {
			break
		}
		local++
		n++
		if math.IsNaN(firstT) {
			firstT = ev.t
		}
		lastT = ev.t
		if local == budgetBatch {
			if sh.par.events.Add(local) > s.cfg.MaxEvents {
				sh.err = fmt.Errorf("netsim: exceeded %d events", s.cfg.MaxEvents)
				return
			}
			local = 0
		}
		switch ev.kind() {
		case evArrive:
			sh.nArrive++
			if err := s.arrive(ev, x); err != nil {
				sh.err = err
				return
			}
		case evFree:
			sh.nFree++
			ci := ev.ch()
			s.channels[ci].busy = false
			s.startTransmit(ci, ev.t, x)
		}
	}
	sh.par.events.Add(local)
	if n == 0 {
		sh.stalls++
	}
	if tr := s.cfg.Trace; tr != nil && n > 0 {
		// The shard's lane shows the sim-time interval its window actually
		// covered (first to last executed event), so gaps to the barrier
		// instants visualize conservative-window slack.
		tr.Span(tracePidShards, sh.id, "window", "shard", firstT, lastT-firstT)
	}
}

// runParallel is the coordinator loop: compute the next window bound,
// run the single-threaded flow phase (deliveries and the injections they
// trigger), release the workers for the network phase, and drain the
// mailboxes at the barrier. Windows are a function of event content
// only, so the loop — and every Result field — is shard-count invariant.
func (s *Sim) runParallel() error {
	p := s.par
	n := len(p.shards)
	for i := range p.shards {
		p.shards[i].bound = make(chan float64, 1)
		go p.worker(&p.shards[i])
	}
	defer func() {
		for i := range p.shards {
			close(p.shards[i].bound)
		}
	}()

	for {
		w := math.Inf(1)
		if t, ok := p.flowQ.peekT(); ok && t < w {
			w = t
		}
		for i := range p.shards {
			if t, ok := p.shards[i].q.peekT(); ok && t < w {
				w = t
			}
		}
		if math.IsInf(w, 1) {
			return s.finishParallel()
		}
		bound := w + p.lookahead
		s.stWindows++
		if tr := s.cfg.Trace; tr != nil {
			tr.Instant(tracePidShards, int32(len(p.shards)), "barrier", bound)
		}

		// Flow phase: all pending deliveries below the bound, in canonical
		// order. Injections they trigger route into the shard queues and
		// run this window (their times are below the bound by definition).
		var nFlow int64
		var ev event
		for p.flowQ.popIfInto(bound, &ev) {
			nFlow++
			s.deliver(ev)
		}
		// Flow-phase deliveries are arrival events the serial engine would
		// have counted in its loop; credit them to the arrive kind so
		// events-by-kind totals are shard-count invariant.
		s.stArrive += nFlow
		if nFlow > 0 && p.events.Add(nFlow) > s.cfg.MaxEvents {
			return fmt.Errorf("netsim: exceeded %d events", s.cfg.MaxEvents)
		}

		// Network phase: every shard processes its events below the bound.
		p.wg.Add(n)
		for i := range p.shards {
			p.shards[i].bound <- bound
		}
		p.wg.Wait()
		for i := range p.shards {
			if err := p.shards[i].err; err != nil {
				return err
			}
		}
		if p.events.Load() > s.cfg.MaxEvents {
			return fmt.Errorf("netsim: exceeded %d events", s.cfg.MaxEvents)
		}

		// Barrier: drain mailboxes and discovered deliveries in fixed
		// shard order. Everything drained is beyond the bound (lookahead),
		// so it lands in a later window.
		for i := range p.shards {
			sh := &p.shards[i]
			for ts := range sh.mailOut {
				for _, e := range sh.mailOut[ts] {
					p.shards[ts].q.push(e)
				}
				sh.mailOut[ts] = sh.mailOut[ts][:0]
			}
			for _, e := range sh.flowOut {
				p.flowQ.push(e)
			}
			sh.flowOut = sh.flowOut[:0]
		}
	}
}

func (s *Sim) finishParallel() error {
	s.res.Events = s.par.events.Load()
	// Sum shard-local instrumentation into the Sim totals (safe: every
	// worker is parked at the barrier — wg.Wait happened-before here).
	for i := range s.par.shards {
		sh := &s.par.shards[i]
		s.stArrive += sh.nArrive
		s.stFree += sh.nFree
	}
	return nil
}
