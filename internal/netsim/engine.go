// Package netsim is a discrete-event packet-level network simulator, the
// repository's substitute for the Structural Simulation Toolkit (SST) used
// by the paper. It simulates individual packets through the switch graph
// built by internal/topo with the Appendix F parameters: 8 KiB packets,
// 400 Gb/s links (50 GB/s = 50 B/ns), 20 ns cable / 1 ns PCB latency, and
// per-hop input/output buffering latency.
//
// The simulator runs on the compiled flat-array network (internal/simcore):
// a channel is exactly one compiled port, so its id doubles as the index of
// all mutable per-channel state, and every hot-loop lookup — candidate
// output ports, buffer occupancy, blocked-channel wakeups, per-endpoint
// receive accounting — is an array index rather than a map access.
//
// Two flow-control modes are supported: IdealBuffers (unbounded switch
// queues, trivially deadlock-free; congestion still forms through link
// serialization) and CreditFC (finite switch input buffers with
// backpressure and the paper's virtual-channel escalation policy,
// §IV-C3; endpoint NICs are treated as amply buffered). Routing is
// minimal adaptive: among the shortest-path candidate output ports the
// node picks the least-queued one (selectable for ablation studies).
//
// # Parallel engine
//
// Config.Shards > 1 runs the conservative-parallel engine (parallel.go):
// the compiled nodes are split into contiguous, port-weight-balanced
// ranges (simcore.PartitionNodes) — so each shard owns a contiguous CSR
// port range and all of its mutable channel state — and shards advance
// in lookahead windows of min(link latency) + switch latency,
// exchanging cross-shard packets through per-pair mailboxes drained at
// window barriers. Flow accounting (deliveries, completion times,
// source-window injection) runs as a separate single-threaded flow
// phase at each window boundary, which resolves the zero-delay
// delivery→injection feedback exactly.
//
// The determinism contract: events execute in a canonical total order
// (time, then kind/node/channel, then injection sequence — see
// eventBefore), so
// Result is bit-identical for every shard count, including 1 and the
// serial engine, on any deterministic configuration. Configurations
// whose semantics are inherently serial — CreditFC (zero-latency credit
// wakeups), UGAL and RandomCandidate (a single RNG stream consumed in
// event order) — transparently fall back to the serial engine so the
// contract is never silently weakened; Config.MaxEvents is enforced as
// one global budget across shards. The golden and invariance tests pin
// all of this.
package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"hammingmesh/internal/obs"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// Mode selects the flow-control model.
type Mode uint8

const (
	// IdealBuffers uses unbounded switch queues (no backpressure).
	IdealBuffers Mode = iota
	// CreditFC bounds per-switch input buffers and applies backpressure
	// with virtual-channel escalation at board-to-network hops.
	CreditFC
)

// Choice selects how a node picks among minimal candidate output ports.
type Choice uint8

const (
	// LeastQueued picks the candidate with the smallest queued byte count
	// (packet-level adaptive routing, the paper's default).
	LeastQueued Choice = iota
	// RandomCandidate picks uniformly at random (oblivious spraying).
	RandomCandidate
	// FirstCandidate always picks the first candidate (deterministic
	// routing; ablation baseline).
	FirstCandidate
)

// QueueKind once selected the event-queue implementation.
//
// Deprecated: New ignores it; the calendar queue (calqueue.go) is the
// engine's only event queue.
type QueueKind uint8

const (
	// Deprecated: New ignores Config.Queue.
	QueueCalendar QueueKind = iota
	// Deprecated: New ignores Config.Queue.
	QueueHeap
)

// window is the number of packets each flow keeps outstanding
// (source-side injection control): a flow injects this many at time 0 and
// one more per delivered packet.
const window = 16

// Config controls a simulation run.
type Config struct {
	LP     topo.LinkParams
	Mode   Mode
	Choice Choice
	Seed   int64
	// MaxEvents aborts runaway simulations. Zero means 500 million. With
	// Shards > 1 it is a single global budget shared by all shards.
	MaxEvents int64
	// UGAL enables UGAL-L non-minimal adaptive routing (see chooseUGAL).
	UGAL bool
	// Deprecated: New ignores Queue; every run uses the calendar queue.
	Queue QueueKind
	// Shards runs the conservative-parallel engine on that many shards
	// (see the package doc's parallel-engine section). 0 or 1 means
	// serial; the Result is bit-identical for every shard count.
	// Inherently serial configurations (CreditFC, UGAL, RandomCandidate)
	// fall back to the serial engine.
	Shards int
	// Metrics, when non-nil, receives per-run engine statistics (events
	// by kind, deliveries, windows, per-shard stalls, peak queue
	// occupancy) flushed once after each Run. The hot loops keep plain
	// per-run counters; the registry is touched only at flush time, and
	// results are bit-identical with or without it (obs contract).
	Metrics *obs.Registry
	// Trace, when non-nil, records a flight-recorder trace: per-channel
	// transmit spans (1 sim-ns = 1 trace-µs, so Perfetto shows per-link
	// utilization lanes) and, under the parallel engine, per-shard window
	// spans with barrier instants. Recording never perturbs the
	// simulation; results stay bit-identical.
	Trace *obs.Recorder
}

// DefaultConfig returns the paper-equivalent configuration.
func DefaultConfig() Config {
	return Config{LP: topo.DefaultLinkParams(), Mode: IdealBuffers, Choice: LeastQueued, Seed: 1}
}

// Flow is one unidirectional transfer.
type Flow struct {
	Src, Dst topo.NodeID
	Bytes    int64
}

// Result aggregates a simulation run.
type Result struct {
	// Makespan is the time of the last delivery, in ns (every flow
	// starts at time 0).
	Makespan float64
	// TotalBytes delivered.
	TotalBytes int64
	// FlowFinish[i] is the delivery time of the last packet of flow i.
	FlowFinish []float64
	// RecvByRank[r] is the number of bytes received by the endpoint of
	// rank r (node id Endpoints[r] of the compiled network).
	RecvByRank []int64
	// Deadlocked is set when CreditFC stalls with packets undelivered.
	Deadlocked bool
	// Events is the number of processed simulator events.
	Events int64
}

// AggregateGBps is total delivered bytes over the makespan (GB/s).
func (r *Result) AggregateGBps() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.TotalBytes) / r.Makespan // bytes/ns == GB/s
}

type eventKind uint8

const (
	evArrive eventKind = iota // packet finished traversing a link (or was injected)
	evFree                    // channel finished serializing a packet
)

type packet struct {
	flow  int32
	size  int32
	vc    int8 // virtual channel for the next hop (CreditFC)
	relVC int8 // VC under which this packet holds its current input buffer; -1 none
	ugal  ugalState
}

// event is one scheduled simulator event. kind, node and ch live packed
// in ord — the canonical tie-break key (see eventBefore) — rather than
// as separate fields: the event queue copies events on every sift, so a
// lean struct matters, and packing at creation makes the hot comparator
// two integer compares instead of a field-by-field fallthrough.
type event struct {
	t   float64
	ord uint64
	// seq is the injection-creation sequence number, the tie-breaker of
	// last resort in the canonical event order (eventBefore): injections
	// at one node created at the same instant are otherwise identical
	// keys. Non-injection events are unique by (t, kind, node, ch) alone
	// — a channel serializes, so it frees and delivers at strictly
	// increasing times — and carry seq 0.
	seq int32
	pkt packet
}

// makeEvent packs (kind, node, ch) into the canonical key. node and ch
// are array indices (< 2^31, with ch == -1 for injections), so the
// packing is exact and order-preserving.
func makeEvent(t float64, kind eventKind, node, ch, seq int32, pkt packet) event {
	return event{
		t:   t,
		ord: uint64(kind)<<62 | uint64(uint32(node))<<31 | uint64(uint32(ch+1)),
		seq: seq,
		pkt: pkt,
	}
}

func (e *event) kind() eventKind { return eventKind(e.ord >> 62) }
func (e *event) node() int32     { return int32(e.ord >> 31 & 0x7fffffff) }
func (e *event) ch() int32       { return int32(e.ord&0x7fffffff) - 1 }

// channel holds the mutable state of one link direction; its index is the
// compiled port id, whose static attributes live in comp.Ports.
//
// The queue pops by advancing head instead of re-slicing the front, so the
// backing array is reclaimed (head and length reset) whenever it drains and
// survives across Sim.Reset — steady-state simulation sweeps stop
// allocating queue storage after the first run.
type channel struct {
	busy    bool
	blocked bool // waiting for downstream buffer space (CreditFC)
	queue   []packet
	head    int
	queuedB int64
}

func (ch *channel) qlen() int { return len(ch.queue) - ch.head }

func (ch *channel) pop() packet {
	pkt := ch.queue[ch.head]
	ch.head++
	if ch.head == len(ch.queue) {
		ch.queue = ch.queue[:0]
		ch.head = 0
	} else if ch.head >= 32 && ch.head*2 >= len(ch.queue) {
		// Compact once the dead prefix dominates, so a persistently busy
		// channel's backing array tracks its peak queue depth rather than
		// the total packets it ever carried.
		n := copy(ch.queue, ch.queue[ch.head:])
		ch.queue = ch.queue[:n]
		ch.head = 0
	}
	return pkt
}

// Sim is a single simulation instance. It is not safe for concurrent use,
// but many Sims may share one Compiled network and routing Table.
type Sim struct {
	comp  *simcore.Compiled
	table *routing.Table
	cfg   Config

	// mask is the routing table's degraded-fabric overlay (nil when
	// pristine): the engine refuses to enqueue packets on masked ports.
	mask simcore.PortMask

	// ugalCum caches the cumulative live-port weights of the switch index
	// for fault-aware UGAL intermediate sampling (built lazily; nil on
	// the pristine fabric, where sampling stays uniform).
	ugalCum []int32

	channels []channel // indexed by compiled port id

	// CreditFC state, indexed by node*MaxVCs+vc: input-buffer occupancy
	// per switch per VC, and channels waiting for space.
	occ     []int64
	waiters [][]int32

	flows     []Flow
	flowSent  []int64
	flowRecvd []int64

	// dsts collects the flow destinations Reset warms (kept across runs
	// so steady-state Resets allocate nothing).
	dsts []topo.NodeID

	// cal is the serial engine's event queue; horizon is the largest
	// event-scheduling delay of any port (sizes the calendar ring and,
	// doubled as headroom, its span).
	cal     calendarQueue
	horizon float64

	// injSeq numbers injected events in creation order (the canonical
	// tie-breaker of last resort; see event.seq).
	injSeq int32

	// par is the sharded-parallel engine state, non-nil when cfg.Shards
	// selects it and the configuration is deterministic (parallel.go).
	par *parState

	rng *rand.Rand

	res Result

	// Per-run instrumentation counters, flushed into cfg.Metrics after a
	// successful Run. Plain ints: the serial loop and the coordinator are
	// single-threaded, and shard-local counts (parallel.go) are summed
	// after the final barrier. qLive/qPeak track serial event-queue
	// occupancy only (shards own private queues).
	stArrive, stFree, stDeliver, stWindows int64
	qLive, qPeak                           int64
}

// exec is the event-execution context: the simulator plus the sink
// newly scheduled events go to — the serial event queue, or the local
// shard of the parallel engine, which routes deliveries to the
// flow-domain queue and cross-shard arrivals into mailboxes.
type exec struct {
	s  *Sim
	sh *shard
}

func (x exec) push(e event) {
	if x.sh != nil {
		x.sh.push(e)
		return
	}
	x.s.pushEvent(e)
}

func (s *Sim) pushEvent(e event) {
	s.qLive++
	if s.qLive > s.qPeak {
		s.qPeak = s.qLive
	}
	s.cal.push(e)
}

func (s *Sim) popEventInto(ev *event) bool {
	if s.cal.popIfInto(math.Inf(1), ev) {
		s.qLive--
		return true
	}
	return false
}

// New creates a simulator over a compiled network using minimal adaptive
// routing from the given table (a fresh table is created if nil).
func New(c *simcore.Compiled, table *routing.Table, cfg Config) *Sim {
	if table == nil {
		table = routing.NewTable(c)
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 500_000_000
	}
	s := &Sim{comp: c, table: table, cfg: cfg, mask: table.Mask(), rng: rand.New(rand.NewSource(cfg.Seed))}
	s.channels = make([]channel, c.NumPorts())
	if cfg.Mode == CreditFC {
		s.occ = make([]int64, c.NumNodes()*routing.MaxVCs)
		s.waiters = make([][]int32, c.NumNodes()*routing.MaxVCs)
	}
	// horizon bounds every event-scheduling delay: serialization of a full
	// packet plus link latency plus switch traversal, maximized over ports.
	for i := range c.Ports {
		p := &c.Ports[i]
		d := float64(cfg.LP.PacketB)/p.GBps + p.Latency + cfg.LP.SwitchNS
		if d > s.horizon {
			s.horizon = d
		}
	}
	s.cal.init(2*s.horizon + 1)
	if n := cfg.Shards; n > 1 {
		if nn := c.NumNodes(); n > nn {
			n = nn
		}
		// Inherently serial configurations fall back to the serial engine
		// (see the package doc); lookahead must be positive for windows to
		// make progress.
		if n > 1 && cfg.Mode == IdealBuffers && !cfg.UGAL &&
			cfg.Choice != RandomCandidate && lookaheadOf(c, cfg) > 0 {
			s.par = newParState(s, n)
		}
	}
	if tr := cfg.Trace; tr != nil {
		tr.SetProcessName(tracePidLinks, "netsim links")
		if s.par != nil {
			tr.SetProcessName(tracePidShards, "netsim shards")
			for i := range s.par.shards {
				tr.SetThreadName(tracePidShards, int32(i), fmt.Sprintf("shard %d", i))
			}
			tr.SetThreadName(tracePidShards, int32(len(s.par.shards)), "coordinator")
		}
	}
	return s
}

// Trace pid lanes netsim emits into (obs.Recorder process ids).
const (
	tracePidLinks  = 1 // tid = channel (compiled port) id → per-link lanes
	tracePidShards = 2 // tid = shard id; one extra lane for the coordinator
)

// NewNet creates a simulator straight from a network, compiling it through
// the simcore cache.
func NewNet(n *topo.Network, table *routing.Table, cfg Config) *Sim {
	return New(simcore.Of(n), table, cfg)
}

// Reset re-arms the simulator for another Run on the same network: it
// validates the flows and rewinds all mutable state — channel queues, flow
// accounting, credit buffers, the event queue and the result — reusing
// every backing array of earlier runs, so repeated Run calls on one Sim
// allocate nothing in steady state. The rng deliberately carries over
// (matching the long-standing multi-run behaviour of AlltoallShareOver);
// a previously returned Result aliases the reused arrays and is
// invalidated by the next Reset or Run. Reset also warms the routing
// table's distance vectors of the flows' destinations, in batches
// (routing.Table.Precompute). A config without a positive
// packet size (Config.LP.PacketB; the zero Config has none) is refused:
// its packets would carry no bytes and the run would spin to MaxEvents.
func (s *Sim) Reset(flows []Flow) error {
	if s.cfg.LP.PacketB <= 0 {
		return fmt.Errorf("netsim: packet size %d B, want at least 1 (Config.LP.PacketB)", s.cfg.LP.PacketB)
	}
	// The run reads the distance vector of every flow's destination (a
	// degraded fabric's reachability checks below read them first), so a
	// cold table builds them all here, 64 per BFS walk, rather than one
	// lazy BFS per destination. Once they are cached this allocates
	// nothing.
	s.dsts = s.dsts[:0]
	for _, f := range flows {
		if f.Bytes > 0 {
			s.dsts = append(s.dsts, f.Dst)
		}
	}
	s.table.Precompute(s.dsts)
	for fi, f := range flows {
		if f.Bytes <= 0 {
			continue
		}
		if f.Src == f.Dst {
			return fmt.Errorf("netsim: flow %d is a self-flow", fi)
		}
		// Receive accounting is dense by endpoint rank, so only endpoints
		// can terminate flows.
		if s.comp.RankOf[f.Dst] < 0 {
			return fmt.Errorf("netsim: flow %d destination %d is not an endpoint", fi, f.Dst)
		}
		// On a degraded fabric a flow whose destination was cut off fails
		// up front with the typed routing error rather than panicking on an
		// empty candidate set mid-simulation.
		if s.mask != nil && !s.table.Reachable(f.Src, f.Dst) {
			return fmt.Errorf("netsim: flow %d: %w", fi, &routing.ErrUnreachable{From: f.Src, To: f.Dst})
		}
	}
	s.flows = flows
	for ci := range s.channels {
		ch := &s.channels[ci]
		ch.busy, ch.blocked = false, false
		ch.queue = ch.queue[:0]
		ch.head = 0
		ch.queuedB = 0
	}
	clear(s.occ)
	for i := range s.waiters {
		s.waiters[i] = s.waiters[i][:0]
	}
	s.flowSent = resetSlice(s.flowSent, len(flows))
	s.flowRecvd = resetSlice(s.flowRecvd, len(flows))
	s.res = Result{
		FlowFinish: resetSlice(s.res.FlowFinish, len(flows)),
		RecvByRank: resetSlice(s.res.RecvByRank, s.comp.NumEndpoints()),
	}
	s.cal.reset()
	s.injSeq = 0
	s.stArrive, s.stFree, s.stDeliver, s.stWindows = 0, 0, 0, 0
	s.qLive, s.qPeak = 0, 0
	if s.par != nil {
		s.par.reset()
	}
	return nil
}

// resetSlice returns a zeroed length-n slice, reusing s's backing array
// when it is large enough.
func resetSlice[T int64 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Run simulates the given flows to completion and returns the result. The
// result's slices are owned by the Sim and invalidated by the next Run or
// Reset on the same instance. After Reset, every flow injects its first
// window of packets at t=0, pushed in flow order as they are created:
// that order fixes their seq values and UGAL's RNG draws, and the t=0
// calendar bucket sorts the burst once, at its first pop (see calBucket).
func (s *Sim) Run(flows []Flow) (*Result, error) {
	if err := s.Reset(flows); err != nil {
		return nil, err
	}
	for fi, f := range flows {
		// Empty flows inject nothing and keep FlowFinish 0 from Reset.
		for w := 0; w < window && s.flowSent[fi] < f.Bytes; w++ {
			s.pushInjection(s.newInjection(int32(fi), 0))
		}
	}

	if s.par != nil {
		if err := s.runParallel(); err != nil {
			return nil, err
		}
	} else if err := s.runSerial(); err != nil {
		return nil, err
	}
	for fi := range flows {
		if s.flowRecvd[fi] < flows[fi].Bytes {
			s.res.Deadlocked = true
		}
	}
	if s.res.Deadlocked && s.cfg.Mode != CreditFC {
		return nil, fmt.Errorf("netsim: internal error: undelivered packets in ideal mode")
	}
	s.flushMetrics()
	return &s.res, nil
}

// flushMetrics publishes the run's plain counters into cfg.Metrics — the
// one place per run the engine touches the registry, so the hot loops
// stay allocation- and lock-free regardless of instrumentation.
func (s *Sim) flushMetrics() {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter("netsim_runs_total", "", "completed packet-simulation runs").Inc()
	m.Counter("netsim_events_total", `kind="arrive"`, "processed simulator events by kind").Add(s.stArrive)
	m.Counter("netsim_events_total", `kind="free"`, "processed simulator events by kind").Add(s.stFree)
	m.Counter("netsim_deliveries_total", "", "packets delivered to their destination endpoint").Add(s.stDeliver)
	m.Gauge("netsim_queue_peak_events", "", "peak event-queue occupancy of the last serial-engine run").Set(float64(s.qPeak))
	if s.par != nil {
		m.Counter("netsim_windows_total", "", "conservative-parallel lookahead windows executed").Add(s.stWindows)
		for i := range s.par.shards {
			m.Counter("netsim_window_stalls_total", fmt.Sprintf(`shard="%d"`, i),
				"windows in which a shard had no events below the bound").Add(s.par.shards[i].stalls)
		}
	}
}

// runSerial is the single-threaded event loop.
func (s *Sim) runSerial() error {
	x := exec{s: s}
	var ev event
	for {
		if !s.popEventInto(&ev) {
			return nil
		}
		s.res.Events++
		if s.res.Events > s.cfg.MaxEvents {
			return fmt.Errorf("netsim: exceeded %d events", s.cfg.MaxEvents)
		}
		switch ev.kind() {
		case evArrive:
			s.stArrive++
			if err := s.arrive(ev, x); err != nil {
				return err
			}
		case evFree:
			s.stFree++
			ci := ev.ch()
			s.channels[ci].busy = false
			s.startTransmit(ci, ev.t, x)
		}
	}
}

// newInjection creates the next packet of flow fi, injected at time t.
func (s *Sim) newInjection(fi int32, t float64) event {
	f := s.flows[fi]
	remaining := f.Bytes - s.flowSent[fi]
	size := int64(s.cfg.LP.PacketB)
	if remaining < size {
		size = remaining
	}
	s.flowSent[fi] += size
	pkt := packet{flow: fi, size: int32(size), relVC: -1, ugal: ugalState{mid: -1}}
	if s.cfg.UGAL {
		pkt.ugal.mid = s.chooseUGAL(int32(f.Src), int32(f.Dst), s.rng)
	}
	// Injections are created in the same order serially and in parallel
	// (the setup loop, then deliveries in canonical order), so seq is a
	// deterministic, shard-count-independent tie-breaker.
	s.injSeq++
	return makeEvent(t, evArrive, int32(f.Src), -1, s.injSeq, pkt)
}

// pushInjection queues an injection on the serial queue or, under the
// parallel engine, at its source's shard.
func (s *Sim) pushInjection(ev event) {
	if s.par != nil {
		s.par.routeInjection(ev)
		return
	}
	s.pushEvent(ev)
}

// deliver processes a packet reaching its flow's destination endpoint. It
// touches only flow and result accounting (never channel state), which is
// what lets the parallel engine run all deliveries — and the injections
// they trigger — in a single-threaded flow phase at window boundaries.
func (s *Sim) deliver(ev event) {
	s.stDeliver++
	pkt := ev.pkt
	f := s.flows[pkt.flow]
	s.flowRecvd[pkt.flow] += int64(pkt.size)
	s.res.TotalBytes += int64(pkt.size)
	s.res.RecvByRank[s.comp.RankOf[ev.node()]] += int64(pkt.size)
	if ev.t > s.res.Makespan {
		s.res.Makespan = ev.t
	}
	if s.flowRecvd[pkt.flow] >= f.Bytes {
		s.res.FlowFinish[pkt.flow] = ev.t
	}
	if s.flowSent[pkt.flow] < f.Bytes {
		s.pushInjection(s.newInjection(pkt.flow, ev.t))
	}
}

// arrive processes a packet reaching a node (after link traversal, or at
// the source when injected). It fails with a typed routing error when the
// packet has no live output toward its target.
func (s *Sim) arrive(ev event, x exec) error {
	node := ev.node()
	pkt := ev.pkt
	f := s.flows[pkt.flow]
	if topo.NodeID(node) == f.Dst {
		s.deliver(ev)
		return nil
	}
	// Non-minimal (UGAL/Valiant) packets route to their intermediate
	// first, then minimally to the destination.
	target := int32(f.Dst)
	if pkt.ugal.mid >= 0 && !pkt.ugal.reached {
		if node == pkt.ugal.mid {
			pkt.ugal.reached = true
		} else {
			target = pkt.ugal.mid
		}
	}
	ci, err := s.pickOutput(node, target)
	if err != nil && target != int32(f.Dst) {
		// The UGAL/Valiant intermediate became unreachable from here (only
		// possible under asymmetric hand-built masks); abandon the detour
		// and route minimally to the destination instead of stranding.
		pkt.ugal.reached = true
		ci, err = s.pickOutput(node, int32(f.Dst))
	}
	if err != nil {
		return err
	}
	ch := &s.channels[ci]
	if s.cfg.Mode == CreditFC {
		// Charge this node's input buffer (switches only; endpoints are
		// amply buffered NICs) under the arrival VC; the slot is released
		// when the packet is popped for its next hop.
		if ev.ch() >= 0 && s.comp.IsSwitch(node) {
			s.occ[int(node)*routing.MaxVCs+int(pkt.vc)] += int64(pkt.size)
			pkt.relVC = pkt.vc
		} else {
			pkt.relVC = -1
		}
		pkt.vc = routing.VCPolicy(s.comp, node, s.comp.Ports[ci].To, pkt.vc)
	}
	ch.queue = append(ch.queue, pkt)
	ch.queuedB += int64(pkt.size)
	if !ch.busy && !ch.blocked {
		s.startTransmit(ci, ev.t, x)
	}
	return nil
}

// pickOutput selects among minimal candidate ports per the Choice policy.
// The routing table scans the node's ports against its distance vector
// into a stack buffer (port order), so the per-packet work is one pass
// over the node's ports, allocation-free up to 64 candidates. On a
// degraded fabric the candidate set excludes masked ports by construction;
// an empty set means the target was cut off, reported as a typed
// *routing.ErrUnreachable.
func (s *Sim) pickOutput(node, dst int32) (int32, error) {
	var buf [64]int32
	cands := s.table.AppendCandidates(buf[:0], node, topo.NodeID(dst))
	switch s.cfg.Choice {
	case FirstCandidate:
		if len(cands) > 0 {
			return cands[0], nil
		}
	case RandomCandidate:
		if len(cands) > 0 {
			return cands[s.rng.Intn(len(cands))], nil
		}
	default: // LeastQueued
		best := int32(-1)
		var bestQ int64
		for _, ci := range cands {
			q := s.channels[ci].queuedB
			if s.channels[ci].busy {
				q++ // prefer an idle channel on ties
			}
			if best < 0 || q < bestQ {
				best, bestQ = ci, q
			}
		}
		if best >= 0 {
			return best, nil
		}
	}
	return -1, &routing.ErrUnreachable{From: topo.NodeID(node), To: topo.NodeID(dst)}
}

// startTransmit pops the head packet of channel ci if flow control admits
// it, scheduling serialization and arrival events.
func (s *Sim) startTransmit(ci int32, t float64, x exec) {
	ch := &s.channels[ci]
	if ch.busy || ch.blocked || ch.qlen() == 0 {
		return
	}
	p := &s.comp.Ports[ci]
	pkt := ch.queue[ch.head]
	if s.cfg.Mode == CreditFC && s.comp.IsSwitch(p.To) {
		key := int(p.To)*routing.MaxVCs + int(pkt.vc)
		if s.occ[key]+int64(pkt.size) > int64(s.cfg.LP.BufferB) {
			ch.blocked = true
			s.waiters[key] = append(s.waiters[key], ci)
			return
		}
	}
	ch.pop()
	ch.queuedB -= int64(pkt.size)
	if s.cfg.Mode == CreditFC && pkt.relVC >= 0 {
		s.releaseBufferAt(s.comp.Owner[ci], pkt.relVC, int64(pkt.size), t, x)
		pkt.relVC = -1
	}
	ser := float64(pkt.size) / p.GBps
	if tr := s.cfg.Trace; tr != nil {
		// One span per packet serialization on the channel's lane: the
		// gaps between spans are exactly the link's idle time, so Perfetto
		// renders per-link utilization directly. Safe from shard
		// goroutines (the recorder locks internally) and order-free (the
		// export sort is canonical).
		tr.Span(tracePidLinks, ci, "xmit", "link", t, ser)
	}
	ch.busy = true
	x.push(makeEvent(t+ser, evFree, 0, ci, 0, packet{}))
	x.push(makeEvent(t+ser+p.Latency+s.cfg.LP.SwitchNS, evArrive, p.To, ci, 0, pkt))
}

// releaseBufferAt returns buffer space at (node, vc) and wakes channels
// blocked on that buffer.
func (s *Sim) releaseBufferAt(node int32, vc int8, size int64, t float64, x exec) {
	key := int(node)*routing.MaxVCs + int(vc)
	s.occ[key] -= size
	ws := s.waiters[key]
	if len(ws) == 0 {
		return
	}
	s.waiters[key] = nil
	for _, wci := range ws {
		s.channels[wci].blocked = false
		s.startTransmit(wci, t, x)
	}
}
