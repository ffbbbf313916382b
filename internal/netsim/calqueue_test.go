package netsim

import (
	"math/rand"
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
