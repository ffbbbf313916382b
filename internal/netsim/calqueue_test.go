package netsim

import (
	"math/rand"
	"slices"
	"testing"
)

// The property pinning the calendar queue to the reference 4-ary heap:
// on any stream of pushes and pops, the calendar queue pops the exact
// event sequence the heap pops — not just the same timestamp multiset,
// the same canonical order. Unique seq values make any divergence visible.
func TestCalendarMatchesHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		var cal calendarQueue
		var heap eventQueue
		// Vary the span across trials: tight spans force overflow use,
		// wide spans force empty-bucket skipping.
		span := []float64{3, 50, 1000, 100000}[trial%4]
		cal.init(span)

		now := 0.0
		seq := int32(0)
		nOps := 2000 + rng.Intn(2000)
		for op := 0; op < nOps; op++ {
			if rng.Intn(3) > 0 || len(heap) == 0 {
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					seq++
					dt := 0.0
					switch rng.Intn(10) {
					case 0: // same-timestamp burst (heavy t=0 injection case)
					case 1: // far-future spike, lands in the overflow heap
						dt = span * (2 + rng.Float64()*100)
					default:
						dt = rng.Float64() * span
					}
					var pkt packet
					pkt.flow = int32(rng.Intn(4))
					e := makeEvent(now+dt, eventKind(rng.Intn(2)),
						int32(rng.Intn(8)), int32(rng.Intn(16))-1, seq, pkt)
					cal.push(e)
					heap.push(e)
				}
			} else {
				want := heap.pop()
				got, ok := cal.pop()
				if !ok {
					t.Fatalf("trial %d: calendar empty, heap has %d", trial, len(heap)+1)
				}
				if got != want {
					t.Fatalf("trial %d op %d: pop mismatch\ncal  %+v\nheap %+v", trial, op, got, want)
				}
				// Discrete-event contract: pushes never precede the last
				// popped event's time.
				now = want.t
			}
			if cal.len() != len(heap) {
				t.Fatalf("trial %d: len %d != %d", trial, cal.len(), len(heap))
			}
		}
		// Drain: the full remaining sequences must match pop for pop.
		for len(heap) > 0 {
			want := heap.pop()
			got, ok := cal.pop()
			if !ok || got != want {
				t.Fatalf("trial %d drain: got %+v ok=%v, want %+v", trial, got, ok, want)
			}
		}
		if _, ok := cal.pop(); ok {
			t.Fatalf("trial %d: calendar not empty after drain", trial)
		}
	}
}

// A same-slice burst far above the grow threshold must trigger bucket
// resizing and still pop in exact canonical order, including events
// pushed before the resize.
func TestCalendarGrowPreservesOrder(t *testing.T) {
	var cal calendarQueue
	var heap eventQueue
	cal.init(100)
	if cal.nb != calInitBuckets {
		t.Fatalf("initial buckets = %d, want %d", cal.nb, calInitBuckets)
	}
	rng := rand.New(rand.NewSource(7))
	n := calInitBuckets*calGrowPerBucket*4 + 3
	for i := 0; i < n; i++ {
		e := makeEvent(rng.Float64()*100, evArrive, int32(i), -1, int32(i), packet{})
		cal.push(e)
		heap.push(e)
	}
	if cal.nb <= calInitBuckets {
		t.Fatalf("buckets = %d after %d pushes, expected growth", cal.nb, n)
	}
	for len(heap) > 0 {
		want := heap.pop()
		got, ok := cal.pop()
		if !ok || got != want {
			t.Fatalf("post-grow pop: got %+v ok=%v, want %+v", got, ok, want)
		}
	}
}

// peekT and popIf are the window primitives of the parallel engine:
// peekT must not disturb the queue, popIf must respect a strict bound.
func TestCalendarPeekAndPopIf(t *testing.T) {
	var cal calendarQueue
	cal.init(50)
	for i, tm := range []float64{30, 10, 20, 10, 500} { // 500 overflows
		cal.push(makeEvent(tm, evArrive, 0, -1, int32(i), packet{}))
	}
	if tm, ok := cal.peekT(); !ok || tm != 10 {
		t.Fatalf("peekT = %v %v, want 10 true", tm, ok)
	}
	if cal.len() != 5 {
		t.Fatalf("peekT disturbed the queue: len %d", cal.len())
	}
	if _, ok := cal.popIf(10); ok {
		t.Fatal("popIf(10) returned an event at t=10 (bound is strict)")
	}
	var got []float64
	for {
		e, ok := cal.popIf(25)
		if !ok {
			break
		}
		got = append(got, e.t)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("popIf(25) sequence = %v, want [10 10 20]", got)
	}
	if tm, ok := cal.peekT(); !ok || tm != 30 {
		t.Fatalf("after popIf: peekT = %v %v, want 30 true", tm, ok)
	}
	// Ring now empty except t=30; popping it leaves only the overflow
	// event, which refill must surface.
	if e, ok := cal.pop(); !ok || e.t != 30 {
		t.Fatalf("pop = %v %v, want t=30", e, ok)
	}
	if e, ok := cal.pop(); !ok || e.t != 500 {
		t.Fatalf("overflow pop = %v %v, want t=500", e, ok)
	}
	if _, ok := cal.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestCalendarBucketPaths drives each way an event reaches its place in
// a calendar bucket and checks every pop against the reference heap:
// appends that arrive in canonical order (the first pop sorts nothing),
// appends out of order (sorted once, at the first pop), a push into a
// bucket after its first pop (binary insert), a grow while a bucket is
// half popped, and an overflow drain. Each step pushes, pops, then checks
// the state of the bucket holding the time it names.
func TestCalendarBucketPaths(t *testing.T) {
	// at returns events at time tm at the given nodes, so their canonical
	// order is the order of the nodes; seq keeps every key unique.
	seq := int32(0)
	at := func(tm float64, nodes ...int32) []event {
		out := make([]event, len(nodes))
		for i, node := range nodes {
			seq++
			out[i] = makeEvent(tm, evArrive, node, -1, seq, packet{})
		}
		return out
	}
	upTo := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	downFrom := func(n int) []int32 {
		out := upTo(n)
		slices.Reverse(out)
		return out
	}
	type step struct {
		push []event
		pops int
		// bucket names the time whose bucket is checked (none when 0),
		// with its wanted unpopped event count and flags; nb, when
		// non-zero, is the wanted ring size.
		bucket            float64
		n                 int
		sorted, unordered bool
		nb                int
	}
	burst := calInitBuckets * calGrowPerBucket
	cases := []struct {
		name  string
		span  float64
		steps []step
	}{
		{"in-order appends skip the sort", 100, []step{
			{push: at(3, upTo(40)...), bucket: 3, n: 40},
			{pops: 1, bucket: 3, n: 39, sorted: true},
			{pops: 39},
		}},
		{"out-of-order appends sort at the first pop", 100, []step{
			{push: append(at(3, downFrom(30)...), at(3.05, 5, 2, 9)...), bucket: 3, n: 33, unordered: true},
			{pops: 1, bucket: 3, n: 32, sorted: true},
			{pops: 32},
		}},
		{"a push after the first pop inserts in place", 100, []step{
			{push: at(3, 9, 4, 7, 1), bucket: 3, n: 4, unordered: true},
			{pops: 2, bucket: 3, n: 2, sorted: true},
			{push: at(3, 2, 8, 5, 20), bucket: 3, n: 6, sorted: true},
			{pops: 3},
			{push: at(3.05, 0, 6), bucket: 3, n: 5, sorted: true},
			{pops: 5},
		}},
		{"grow while a bucket is half popped", 100, []step{
			{push: at(0.1, downFrom(600)...), pops: 300, bucket: 0.1, n: 300, sorted: true},
			// The burst overfills the ring; grow re-buckets the 300 left,
			// in order, into a bucket that has not been read.
			{push: at(50, upTo(burst)...), bucket: 0.1, n: 300, nb: 2 * calInitBuckets},
			{pops: 300 + burst},
		}},
		{"an overflow drain appends in order", 10, []step{
			{push: append(at(1, 3), at(10.5, downFrom(20)...)...), bucket: 10.5, n: 0},
			// Popping t=1 advances the cursor, which drains t=10.5 into
			// the ring in the heap's canonical order.
			{pops: 1, bucket: 10.5, n: 20},
			{pops: 20},
		}},
	}
	for _, tc := range cases {
		var cal calendarQueue
		var ref eventQueue
		cal.init(tc.span)
		for si, st := range tc.steps {
			for _, e := range st.push {
				cal.push(e)
				ref.push(e)
			}
			for p := 0; p < st.pops; p++ {
				want := ref.pop()
				if got, ok := cal.pop(); !ok || got != want {
					t.Fatalf("%s, step %d, pop %d: got %+v (ok %v), want %+v", tc.name, si, p, got, ok, want)
				}
			}
			if st.bucket > 0 {
				b := &cal.buckets[int(st.bucket*cal.invW)&cal.mask]
				if n := len(b.ev) - b.head; n != st.n || b.sorted != st.sorted || b.unordered != st.unordered {
					t.Fatalf("%s, step %d: bucket of t=%v holds %d events (sorted %v, unordered %v), want %d (%v, %v)",
						tc.name, si, st.bucket, n, b.sorted, b.unordered, st.n, st.sorted, st.unordered)
				}
			}
			if st.nb != 0 && cal.nb != st.nb {
				t.Fatalf("%s, step %d: %d buckets, want %d", tc.name, si, cal.nb, st.nb)
			}
		}
		if cal.len() != 0 || len(ref) != 0 {
			t.Fatalf("%s: %d events left, the heap has %d", tc.name, cal.len(), len(ref))
		}
	}
}

// TestSortEventsMatchesSortFunc compares the bucket sort, and its
// heapsort fallback alone, with slices.SortFunc on sorted, reversed,
// organ-pipe, all-same-time and random inputs, from a single event up to
// 8,192.
func TestSortEventsMatchesSortFunc(t *testing.T) {
	cmp := func(a, b event) int {
		if eventBefore(&a, &b) {
			return -1
		}
		if eventBefore(&b, &a) {
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 12, 13, 50, 1000, 8192} {
		inputs := map[string][]event{}
		ascending := make([]event, n)
		for i := range ascending {
			ascending[i] = makeEvent(float64(i/4), evArrive, int32(i%4), -1, int32(i), packet{})
		}
		inputs["sorted"] = ascending
		inputs["reversed"] = slices.Clone(ascending)
		slices.Reverse(inputs["reversed"])
		pipe := make([]event, 0, n) // even positions ascending, then odd ones descending
		for i := 0; i < n; i += 2 {
			pipe = append(pipe, ascending[i])
		}
		for i := n - 1 - n%2; i > 0; i -= 2 {
			pipe = append(pipe, ascending[i])
		}
		inputs["organ-pipe"] = pipe
		same := make([]event, n)
		for i := range same {
			same[i] = makeEvent(7, eventKind(rng.Intn(2)), int32(rng.Intn(n)), int32(rng.Intn(8))-1, int32(i), packet{})
		}
		inputs["all-same-time"] = same
		random := make([]event, n)
		for i := range random {
			random[i] = makeEvent(float64(rng.Intn(64)), eventKind(rng.Intn(2)), int32(rng.Intn(32)), int32(rng.Intn(8))-1, int32(i), packet{})
		}
		inputs["random"] = random
		for name, in := range inputs {
			if len(in) != n {
				t.Fatalf("%s input of %d holds %d events", name, n, len(in))
			}
			want := slices.Clone(in)
			slices.SortFunc(want, cmp)
			got := slices.Clone(in)
			sortEvents(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s input of %d events: sortEvents differs from slices.SortFunc", name, n)
			}
			// With no recursion depth left, the introsort hands every
			// range above the insertion-sort size to its heapsort.
			got = slices.Clone(in)
			sortEventsDepth(got, 0)
			if !slices.Equal(got, want) {
				t.Fatalf("%s input of %d events: the heapsort fallback differs from slices.SortFunc", name, n)
			}
		}
	}
}
