package netsim

import (
	"math"
	"math/bits"
)

// calendarQueue is the engine's event queue: a bucketed calendar queue
// over a ring of small sorted slices, with a heap fallback for events
// beyond the ring.
//
// A discrete-event packet simulation has a bounded event horizon: every
// event scheduled at time t fires before t + maxDelay, where maxDelay is
// the largest serialization + link latency + switch traversal of any
// port (derived from topo.LinkParams and the compiled port attributes by
// New). The ring therefore only needs to span that horizon: bucket i
// covers the absolute time slice [i*width, (i+1)*width), the ring covers
// nb consecutive slices starting at base, and push/pop find the bucket
// with one multiply instead of an O(log n) sift across the whole queue.
// Within a bucket, events sit in a sorted slice (calBucket), so pop
// order stays the engine's canonical total order exactly while pops pay
// no comparisons at all; same-slice bursts — e.g. all W*flows initial
// injections at t=0, which Sim.Run sorts before pushing — arrive in
// canonical order and insert at the tail.
//
// Events beyond the ring go to an overflow heap and are drained into the
// ring as base advances past empty slices; a bitmask over non-empty
// buckets makes that advance a couple of trailing-zero scans. Every flow
// starts at t=0 and every event is scheduled within the horizon of the
// one that created it, so a serial run never reaches the heap. The sharded
// engine does: a queue whose ring has drained keeps its old base while the
// other shards advance, so the next event it is handed can lie beyond its
// ring (on the 64-accelerator Hx2Mesh, 3 of 7 sampled shift runs at 2 and
// at 4 shards pushed 256 events each, all into empty rings).
//
// When occupancy exceeds calGrowPerBucket events per bucket the ring
// doubles its bucket count (halving width, at constant span), keeping
// per-bucket heaps shallow as runs grow. All storage — bucket heaps,
// occupancy words, the overflow heap — survives reset, so steady-state
// sweeps allocate nothing.
type calendarQueue struct {
	span  float64 // ring time span; must exceed the max scheduling delay
	width float64 // span / nb
	invW  float64 // 1 / width
	nb    int     // bucket count (power of two)
	mask  int     // nb - 1
	base  int64   // absolute slice index (floor(t/width)) of the cursor
	n     int     // events stored in the ring (excluding overflow)

	buckets []calBucket
	occ     []uint64 // bit i set when buckets[i] is non-empty

	over eventQueue // events at or beyond base+nb slices
}

// calBucket is one calendar slot: its events kept in canonical order as a
// sorted slice with a consumed prefix, rather than a heap. Pops read the
// front and pay no comparisons; pushes binary-search the insert point.
// The dominant push patterns — the initial same-slice injection burst
// (sorted by Sim.Run) and overflow drains — arrive already in canonical
// order, so the insertion memmove is almost always empty and the slot
// degenerates to an append-only array, while the grow policy keeps
// mid-run slots near calGrowPerBucket events so out-of-order inserts
// stay tiny.
type calBucket struct {
	ev   []event
	head int
}

func (b *calBucket) first() *event { return &b.ev[b.head] }

func (b *calBucket) reset() {
	b.ev = b.ev[:0]
	b.head = 0
}

func (b *calBucket) push(e event) {
	lo, hi := b.head, len(b.ev)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventBefore(&b.ev[mid], &e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b.ev = append(b.ev, event{})
	copy(b.ev[lo+1:], b.ev[lo:])
	b.ev[lo] = e
}

const (
	calInitBuckets   = 256
	calMaxBuckets    = 1 << 20
	calGrowPerBucket = 8
)

// init sizes the ring for the given time span and empties the queue. The
// bucket count persists across init/reset so capacity grown by earlier
// runs is kept.
func (q *calendarQueue) init(span float64) {
	if span <= 0 || math.IsInf(span, 1) || math.IsNaN(span) {
		span = 1
	}
	q.span = span
	nb := q.nb
	if nb == 0 {
		nb = calInitBuckets
	}
	q.resize(nb)
	q.reset()
}

// resize sets the bucket count (a power of two) and the derived widths,
// reusing the bucket and occupancy arrays when they are large enough.
func (q *calendarQueue) resize(nb int) {
	q.nb = nb
	q.mask = nb - 1
	q.width = q.span / float64(nb)
	q.invW = 1 / q.width
	if cap(q.buckets) < nb {
		nw := make([]calBucket, nb)
		copy(nw, q.buckets)
		q.buckets = nw
	} else {
		q.buckets = q.buckets[:nb]
	}
	w := (nb + 63) / 64
	if cap(q.occ) < w {
		q.occ = make([]uint64, w)
	} else {
		q.occ = q.occ[:w]
	}
}

// reset empties the queue, keeping all backing storage.
func (q *calendarQueue) reset() {
	for i := range q.buckets {
		q.buckets[i].reset()
	}
	clear(q.occ)
	q.n = 0
	q.base = 0
	q.over = q.over[:0]
}

func (q *calendarQueue) len() int { return q.n + len(q.over) }

// push inserts e. Events must not be scheduled before the last popped
// event's time slice (true of any discrete-event simulation).
func (q *calendarQueue) push(e event) {
	ab := int64(e.t * q.invW)
	if ab-q.base >= int64(q.nb) {
		q.over.push(e)
		return
	}
	if ab < q.base {
		// Float rounding at a slice boundary; the cursor bucket still
		// pops its canonical minimum first, so ordering is unaffected.
		ab = q.base
	}
	q.pushRing(ab, e)
	if q.n > q.nb*calGrowPerBucket && q.nb < calMaxBuckets {
		q.grow()
	}
}

func (q *calendarQueue) pushRing(ab int64, e event) {
	i := int(ab) & q.mask
	q.buckets[i].push(e)
	q.occ[i>>6] |= 1 << (uint(i) & 63)
	q.n++
}

// grow doubles the bucket count at constant span. Halving the width
// doubles every absolute slice index, so ring events re-bucket within
// the new ring bounds by construction.
func (q *calendarQueue) grow() {
	old := q.buckets[:q.nb]
	moved := make([]event, 0, q.n)
	for i := range old {
		moved = append(moved, old[i].ev[old[i].head:]...)
		old[i].reset()
	}
	q.resize(q.nb * 2)
	clear(q.occ)
	for i := range q.buckets {
		q.buckets[i].reset()
	}
	q.base *= 2
	q.n = 0
	for _, e := range moved {
		ab := int64(e.t * q.invW)
		if ab < q.base {
			ab = q.base
		}
		if ab-q.base >= int64(q.nb) { // float-rounding guard only
			q.over.push(e)
			continue
		}
		q.pushRing(ab, e)
	}
}

// drain moves overflow events that now fall inside the ring span. Called
// after every base advance, it maintains the invariant that everything
// in the overflow heap is later than everything in the ring.
func (q *calendarQueue) drain() {
	limit := float64(q.base+int64(q.nb)) * q.width
	for len(q.over) > 0 && q.over[0].t < limit {
		e := q.over.pop()
		ab := int64(e.t * q.invW)
		if ab < q.base {
			ab = q.base
		}
		if ab-q.base >= int64(q.nb) {
			ab = q.base + int64(q.nb) - 1 // float-rounding guard
		}
		q.pushRing(ab, e)
	}
}

// locate advances base to the first non-empty ring bucket and returns
// its index. The ring must be non-empty. The scan walks the occupancy
// words from the cursor with trailing-zeros jumps, wrapping once.
func (q *calendarQueue) locate() int {
	cur := int(q.base) & q.mask
	nw := len(q.occ)
	wi := cur >> 6
	bit := uint(cur) & 63
	for k := 0; k <= nw; k++ {
		idx := wi + k
		if idx >= nw {
			idx -= nw
		}
		w := q.occ[idx]
		if k == 0 {
			w &^= (1 << bit) - 1 // only buckets at or after the cursor
		} else if k == nw {
			w &= (1 << bit) - 1 // wrapped: only buckets before the cursor
		}
		if w == 0 {
			continue
		}
		i := idx<<6 + bits.TrailingZeros64(w)
		d := (i - cur + q.nb) & q.mask
		if d > 0 {
			q.base += int64(d)
			q.drain()
			// Draining may have refilled a bucket between the old and
			// new cursor positions only if it mapped at or after the
			// new base — by the overflow invariant it cannot map
			// before it, so i is still the first non-empty bucket.
		}
		return i
	}
	panic("netsim: calendarQueue.locate on empty ring")
}

// refill restarts the ring at the overflow heap's earliest slice (the
// ring is empty, the overflow is not).
func (q *calendarQueue) refill() {
	q.base = int64(q.over[0].t * q.invW)
	q.drain()
}

// peekT returns the earliest event time without removing it.
func (q *calendarQueue) peekT() (float64, bool) {
	if q.n == 0 {
		if len(q.over) == 0 {
			return 0, false
		}
		q.refill()
	}
	i := q.locate()
	return q.buckets[i].first().t, true
}

// popIfInto removes the canonically earliest event into *out if its time
// is strictly below bound. This is the engine's hot pop path: the event
// is copied exactly once (bucket slot to *out), and the common case —
// the cursor bucket is still occupied — skips the locate call.
func (q *calendarQueue) popIfInto(bound float64, out *event) bool {
	if q.n == 0 {
		if len(q.over) == 0 {
			return false
		}
		q.refill()
	}
	i := int(q.base) & q.mask
	if q.occ[i>>6]>>(uint(i)&63)&1 == 0 {
		i = q.locate()
	}
	b := &q.buckets[i]
	if b.ev[b.head].t >= bound {
		return false
	}
	*out = b.ev[b.head]
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		q.occ[i>>6] &^= 1 << (uint(i) & 63)
	}
	q.n--
	return true
}

// popIf removes and returns the canonically earliest event if its time
// is strictly below bound.
func (q *calendarQueue) popIf(bound float64) (event, bool) {
	var e event
	ok := q.popIfInto(bound, &e)
	return e, ok
}

// pop removes and returns the canonically earliest event.
func (q *calendarQueue) pop() (event, bool) {
	return q.popIf(math.Inf(1))
}
