package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Event phase bytes, a subset of the Chrome trace-event format.
const (
	PhaseSpan    = 'X' // complete span: TS + Dur
	PhaseInstant = 'i' // instant marker at TS
	PhaseCounter = 'C' // counter sample: Arg at TS
)

// Event is one flight-recorder record. Timestamps and durations are in
// trace microseconds; each instrumented layer documents its mapping
// (netsim records 1 sim-ns as 1 trace-µs, sched records 1 sim-hour as
// 1e6 trace-µs = 1 s, wall-time stages record real microseconds). Name,
// Cat and ArgName must be static strings — the recorder copies events
// into a preallocated ring, so emission never allocates.
type Event struct {
	TS   float64 // microseconds
	Dur  float64 // microseconds (PhaseSpan only)
	Arg  float64 // counter value / instant payload
	Pid  int32   // process lane (one per instrumented layer)
	Tid  int32   // thread lane within the process (channel, shard, job id)
	Ph   byte    // PhaseSpan | PhaseInstant | PhaseCounter
	Name string
	Cat  string
	// ArgName labels Arg in the exported JSON ("value" when empty).
	ArgName string
}

// Recorder is a fixed-capacity ring buffer of trace events — a flight
// recorder: emission is mutex-push into preallocated storage (zero
// allocations in steady state, safe for concurrent emitters), and when
// the ring fills the oldest events are overwritten so a recorder can ride
// along arbitrarily long runs at bounded memory. Export sorts the
// surviving events into a canonical total order, so the serialized trace
// is deterministic even when concurrent shards interleaved their
// emissions nondeterministically.
//
// A nil *Recorder is a valid no-op recorder: every method is nil-safe, so
// instrumented layers hold an optional recorder without guarding each
// call site (hot paths still guard, to skip argument setup).
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	next    int // next write slot
	wrapped bool
	dropped int64

	procNames   map[int32]string
	threadNames map[int64]string // pid<<32 | tid
}

// DefaultRecorderCap is the ring capacity NewRecorder(0) uses.
const DefaultRecorderCap = 1 << 16

// NewRecorder creates a recorder holding the last `capacity` events
// (<= 0 means DefaultRecorderCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{
		buf:         make([]Event, 0, capacity),
		procNames:   make(map[int32]string),
		threadNames: make(map[int64]string),
	}
}

// Emit records one event, overwriting the oldest once the ring is full.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.next == cap(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	if r.wrapped {
		r.buf[r.next] = e
		r.dropped++
	} else {
		r.buf = append(r.buf, e)
	}
	r.next++
	r.mu.Unlock()
}

// Span records a complete span of dur microseconds starting at ts.
func (r *Recorder) Span(pid, tid int32, name, cat string, ts, dur float64) {
	r.Emit(Event{Ph: PhaseSpan, Pid: pid, Tid: tid, Name: name, Cat: cat, TS: ts, Dur: dur})
}

// Instant records a point marker at ts.
func (r *Recorder) Instant(pid, tid int32, name string, ts float64) {
	r.Emit(Event{Ph: PhaseInstant, Pid: pid, Tid: tid, Name: name, TS: ts})
}

// Counter records a counter sample (rendered as a track in Perfetto).
func (r *Recorder) Counter(pid, tid int32, name, argName string, ts, v float64) {
	r.Emit(Event{Ph: PhaseCounter, Pid: pid, Tid: tid, Name: name, ArgName: argName, TS: ts, Arg: v})
}

// SetProcessName labels a pid lane in the exported trace. Call at setup
// time (it allocates map entries).
func (r *Recorder) SetProcessName(pid int32, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.procNames[pid] = name
	r.mu.Unlock()
}

// SetThreadName labels a (pid, tid) lane in the exported trace.
func (r *Recorder) SetThreadName(pid, tid int32, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.threadNames[int64(pid)<<32|int64(uint32(tid))] = name
	r.mu.Unlock()
}

// Len is the number of events currently held (≤ capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped is the number of events overwritten by ring wrap-around.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns a copy of the held events in the canonical export order:
// sorted by (TS, Pid, Tid, Ph, Name, Dur, Arg). Concurrent shards may
// interleave emissions in any order; the canonical sort makes the
// exported trace a pure function of the set of recorded events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Event(nil), r.buf...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ph != b.Ph {
			return a.Ph < b.Ph
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return a.Arg < b.Arg
	})
	return out
}

// WriteJSON serializes the recording as Chrome trace-event JSON
// ({"traceEvents": [...]}), the format Perfetto and chrome://tracing load
// directly: metadata (process/thread names) first, then the events in
// canonical order. Output is deterministic for a given set of events.
func (r *Recorder) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	if r != nil {
		r.mu.Lock()
		pids := make([]int32, 0, len(r.procNames))
		for pid := range r.procNames {
			pids = append(pids, pid)
		}
		tkeys := make([]int64, 0, len(r.threadNames))
		for k := range r.threadNames {
			tkeys = append(tkeys, k)
		}
		procs, threads := r.procNames, r.threadNames
		r.mu.Unlock()
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
		sort.Slice(tkeys, func(i, j int) bool { return tkeys[i] < tkeys[j] })
		for _, pid := range pids {
			sep()
			fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
				pid, jstr(procs[pid]))
		}
		for _, k := range tkeys {
			sep()
			fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				int32(k>>32), int32(uint32(k)), jstr(threads[k]))
		}
	}
	for _, e := range r.Events() {
		sep()
		switch e.Ph {
		case PhaseSpan:
			fmt.Fprintf(bw, `{"name":%s,%s"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s}`,
				jstr(e.Name), catField(e.Cat), e.Pid, e.Tid, jnum(e.TS), jnum(e.Dur))
		case PhaseInstant:
			fmt.Fprintf(bw, `{"name":%s,%s"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s}`,
				jstr(e.Name), catField(e.Cat), e.Pid, e.Tid, jnum(e.TS))
		case PhaseCounter:
			arg := e.ArgName
			if arg == "" {
				arg = "value"
			}
			fmt.Fprintf(bw, `{"name":%s,"ph":"C","pid":%d,"tid":%d,"ts":%s,"args":{%s:%s}}`,
				jstr(e.Name), e.Pid, e.Tid, jnum(e.TS), jstr(arg), jnum(e.Arg))
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func catField(cat string) string {
	if cat == "" {
		return ""
	}
	return `"cat":` + jstr(cat) + `,`
}

// jstr quotes s as a JSON string without HTML escaping: invalid UTF-8
// becomes U+FFFD, '"' and '\' are backslash-escaped, control characters
// become \u00XX, and every other byte is written as is. On printable ASCII
// this is strconv.Quote's output, whose Go escapes (\a, \x7f, \xff) JSON
// rejects.
func jstr(s string) string {
	const hex = "0123456789abcdef"
	s = strings.ToValidUTF8(s, "\uFFFD")
	b := make([]byte, 0, len(s)+2)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// jnum formats a float as a JSON number (no exponent surprises for the
// magnitudes traces use; -1 precision keeps the shortest round-trip form).
func jnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteFile writes the recording to path (created or truncated) as
// WriteJSON does. A file that cannot be created returns os.Create's error;
// a failed write or close returns it wrapped as a trace write error.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace write: %w", err)
	}
	return nil
}
