package sched

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzParseTraceCSV feeds arbitrary text to the CSV trace loader, which
// reads files from outside the program (hxalloc -trace-csv): it must never
// panic, and every trace it accepts must hold only valid jobs.
func FuzzParseTraceCSV(f *testing.F) {
	f.Add(csvHoursTrace, 4)
	f.Add(csvSecondsTrace, 16)
	for _, in := range csvBadTraces {
		f.Add(in, 4)
	}
	f.Fuzz(func(t *testing.T, data string, accelsPerBoard int) {
		jobs, err := ParseTraceCSV(strings.NewReader(data), CSVOptions{AccelsPerBoard: accelsPerBoard, DefaultCommFrac: 0.3})
		if err == nil {
			checkAcceptedTrace(t, jobs)
		}
	})
}

// FuzzParseTrace is FuzzParseTraceCSV for the JSON trace loader
// (hxalloc -trace).
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(jsonTrace))
	for _, in := range jsonBadTraces {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := ParseTrace(data)
		if err == nil {
			checkAcceptedTrace(t, jobs)
		}
	})
}

// checkAcceptedTrace fails t unless every job of an accepted trace has
// finite times and comm fraction, the jobs come in arrival order, and
// finishTrace accepts them again.
func checkAcceptedTrace(t *testing.T, jobs []TraceJob) {
	t.Helper()
	for i, j := range jobs {
		for _, v := range []float64{j.Arrival, j.Service, j.CommFrac} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted job %d has a non-finite number: %+v", i, j)
			}
		}
		if i > 0 && j.Arrival < jobs[i-1].Arrival {
			t.Fatalf("accepted jobs %d and %d out of arrival order: %+v", i-1, i, jobs)
		}
	}
	if _, err := finishTrace(slices.Clone(jobs)); err != nil {
		t.Fatalf("accepted trace fails validation: %v", err)
	}
}
