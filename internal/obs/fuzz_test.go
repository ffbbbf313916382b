package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzRecorderWriteJSON records one lane of arbitrary names — process and
// thread names, a span, an instant and a counter — at arbitrary finite
// times and checks that WriteJSON's output decodes as JSON and that every
// event comes back: the count, each name (invalid UTF-8 as U+FFFD), the
// category, the counter's argument name, and the pids and tids.
func FuzzRecorderWriteJSON(f *testing.F) {
	f.Add("hxsim", "shard 0", "run", "engine", "", int32(1), int32(0), 100.0, 50.0, 0.75)
	f.Add("sched", "job 42", "checkpoint", "job", "frac", int32(7), int32(42), 0.0, 0.0, -1.0)
	f.Add("bell\a", "del\x7f", "nul\x00", "\xff", "q\"uote\\", int32(-3), int32(-1), 1e21, 1e-7, -0.0)
	f.Add("<html>&amp;", "é ü \u2028", "tab\tnew\nline", "\x1b[0m", "\xc3", int32(math.MaxInt32), int32(math.MinInt32), -5.5, 3e-300, 1.7976931348623157e308)
	f.Fuzz(func(t *testing.T, proc, thread, name, cat, argName string, pid, tid int32, ts, dur, arg float64) {
		for _, v := range []float64{ts, dur, arg} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		// Quoting is byte-local (a UTF-8 sequence spans at most 4 bytes),
		// so longer names test nothing new; short ones keep each run, and
		// the minimizer's quadratic passes, cheap.
		for _, s := range []*string{&proc, &thread, &name, &cat, &argName} {
			*s = (*s)[:min(len(*s), 32)]
		}
		r := NewRecorder(8)
		r.SetProcessName(pid, proc)
		r.SetThreadName(pid, tid, thread)
		r.Span(pid, tid, name, cat, ts, dur)
		r.Instant(pid, tid, name, ts)
		r.Counter(pid, tid, name, argName, ts, arg)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Cat  string
				Ph   string
				Pid  int32
				Tid  int32
				Args map[string]any
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
		}
		valid := func(s string) string { return strings.ToValidUTF8(s, "\uFFFD") }
		if argName == "" {
			argName = "value"
		}
		// Metadata first, then the events in canonical order: equal
		// times and lanes sort by phase, 'C' < 'X' < 'i'.
		want := []struct {
			ph, name, cat, argKey, argVal string
			tid                           int32
		}{
			{"M", "process_name", "", "name", valid(proc), 0},
			{"M", "thread_name", "", "name", valid(thread), tid},
			{"C", valid(name), "", valid(argName), "", tid},
			{"X", valid(name), valid(cat), "", "", tid},
			{"i", valid(name), "", "", "", tid},
		}
		if len(doc.TraceEvents) != len(want) {
			t.Fatalf("%d events, want %d:\n%s", len(doc.TraceEvents), len(want), buf.Bytes())
		}
		for i, w := range want {
			e := doc.TraceEvents[i]
			if e.Ph != w.ph || e.Name != w.name || e.Cat != w.cat || e.Pid != pid || e.Tid != w.tid {
				t.Fatalf("event %d = %+v, want ph %q name %q cat %q pid %d tid %d", i, e, w.ph, w.name, w.cat, pid, w.tid)
			}
			if w.argKey == "" {
				continue
			}
			if _, ok := e.Args[w.argKey]; !ok {
				t.Fatalf("event %d args %v lack %q", i, e.Args, w.argKey)
			}
			if w.argVal != "" && e.Args[w.argKey] != w.argVal {
				t.Fatalf("event %d args %v, want %q: %q", i, e.Args, w.argKey, w.argVal)
			}
		}
	})
}
