package netsim

// The engine processes events in a canonical total order, not merely in
// timestamp order: ties on t break by (kind, node, channel), then by seq
// (assigned in injection-creation order), which makes every key unique —
// injections are the only events that can collide on (t, kind, node,
// channel), and each carries a distinct seq. A deterministic tie order
// is what let the calendar queue replace this heap without drift, and —
// more importantly — what makes the sharded parallel engine
// (parallel.go) bit-identical for any shard count: each shard pops the
// canonical subsequence of the events at its nodes, so the per-node
// event order (the only order simulation semantics can observe) is the
// same no matter how nodes are grouped into shards. The (kind, node,
// ch+1) key is precomputed into the single integer event.ord at creation
// (see makeEvent), so the comparator is at most three compares; ties on
// t are pervasive (packet times are quantized by uniform serialization
// delays) and the event queue is the hottest code in the engine.
func eventBefore(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.ord != b.ord {
		return a.ord < b.ord
	}
	return a.seq < b.seq
}

// eventQueue is a typed 4-ary min-heap in the canonical event order. It
// replaced the container/heap binary heap the engine started with (an
// interface boxing/unboxing per push/pop plus indirect Less/Swap calls;
// the event queue dominated the profile at ~60% of CPU). Since the
// calendar queue (calqueue.go) became the engine's only event queue it
// serves two roles: the calendar queue's far-future overflow area, where
// events beyond the ring span wait in O(log n) until the cursor
// approaches their slice, and the oracle the calendar queue is pinned
// pop-for-pop identical to by property test (calqueue_test.go).
type eventQueue []event

// push inserts e, sifting it up toward the root.
func (q *eventQueue) push(e event) {
	h := *q
	i := len(h)
	h = append(h, e)
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventBefore(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event in canonical order.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	*q = h
	n := len(h)
	if n == 0 {
		return top
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		best := first
		for c := first + 1; c < end; c++ {
			if eventBefore(&h[c], &h[best]) {
				best = c
			}
		}
		if !eventBefore(&h[best], &last) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = last
	return top
}
