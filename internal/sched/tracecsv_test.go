package sched

import (
	"math"
	"strings"
	"testing"
)

// The parser tests' inputs, shared with the fuzz targets as seeds.
const (
	csvHoursTrace = `id,arrival_h,boards,service_h,comm_frac,min_boards,priority
0,0.5,4,2.0,0.3,1,2
1,0.25,8,1.5,,,
`
	// Philly-style: seconds, GPU counts, no id column.
	csvSecondsTrace = `submit_time_s,num_gpus,run_time_s,min_gpus
7200,9,3600,4
0,4,1800,
`
)

var csvBadTraces = map[string]string{
	"no arrival": "id,boards,service_h\n0,4,1\n",
	"no size":    "id,arrival_h,service_h\n0,0,1\n",
	"no service": "id,arrival_h,boards\n0,0,4\n",
	"bad number": "arrival_h,boards,service_h\nx,4,1\n",
	"dup column": "arrival_h,submit_time_h,boards,service_h\n0,0,4,1\n",
	"dup id":     "id,arrival_h,boards,service_h\n3,0,4,1\n3,1,4,1\n",
	"zero svc":   "arrival_h,boards,service_h\n0,4,0\n",
	"min>boards": "arrival_h,boards,service_h,min_boards\n0,4,1,8\n",
	"neg prio":   "arrival_h,boards,service_h,priority\n0,4,1,-1\n",
	// Counts are whole numbers, never truncated, and must fit.
	"frac boards": "arrival_h,boards,service_h\n0,2.7,1\n",
	"frac gpus":   "arrival_h,gpus,service_h\n0,9.9,1\n",
	"frac min":    "arrival_h,boards,service_h,min_boards\n0,4,1,1.5\n",
	"frac prio":   "arrival_h,boards,service_h,priority\n0,4,1,2.9\n",
	"huge boards": "arrival_h,boards,service_h\n0,1e300,1\n",
}

func TestParseTraceCSVHours(t *testing.T) {
	jobs, err := ParseTraceCSV(strings.NewReader(csvHoursTrace), CSVOptions{DefaultCommFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jobs))
	}
	// Sorted by arrival: job 1 first.
	if jobs[0].ID != 1 || jobs[1].ID != 0 {
		t.Fatalf("arrival sort wrong: ids %d,%d", jobs[0].ID, jobs[1].ID)
	}
	j := jobs[1]
	if j.Arrival != 0.5 || j.Boards != 4 || j.Service != 2.0 || j.CommFrac != 0.3 || j.MinBoards != 1 || j.Priority != 2 {
		t.Fatalf("job 0 parsed wrong: %+v", j)
	}
	if jobs[0].CommFrac != 0.1 {
		t.Fatalf("empty comm_frac should default to 0.1, got %g", jobs[0].CommFrac)
	}
	if jobs[0].MinBoards != 0 || jobs[0].Priority != 0 {
		t.Fatalf("empty elastic fields should stay zero: %+v", jobs[0])
	}
}

func TestParseTraceCSVAliasesAndSeconds(t *testing.T) {
	jobs, err := ParseTraceCSV(strings.NewReader(csvSecondsTrace), CSVOptions{AccelsPerBoard: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jobs))
	}
	// Row order numbered 0,1; sorted puts row 2 (arrival 0) first.
	if jobs[0].ID != 1 || jobs[1].ID != 0 {
		t.Fatalf("sequential ids wrong: %d,%d", jobs[0].ID, jobs[1].ID)
	}
	j := jobs[1]
	if math.Abs(j.Arrival-2.0) > 1e-12 || math.Abs(j.Service-1.0) > 1e-12 {
		t.Fatalf("seconds not converted: arrival=%g service=%g", j.Arrival, j.Service)
	}
	if j.Boards != 3 { // ceil(9/4)
		t.Fatalf("gpus not ceil-divided: boards=%d", j.Boards)
	}
	if j.MinBoards != 1 {
		t.Fatalf("min_gpus not converted: %d", j.MinBoards)
	}
}

func TestParseTraceCSVErrors(t *testing.T) {
	for name, csv := range csvBadTraces {
		if _, err := ParseTraceCSV(strings.NewReader(csv), CSVOptions{}); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// A count that is not a whole number, or too large to be one, is refused
// with an error naming its row, as the JSON loader refuses it.
func TestParseTraceCSVRefusesNonWholeCounts(t *testing.T) {
	for _, name := range []string{"frac boards", "frac gpus", "frac min", "frac prio", "huge boards"} {
		_, err := ParseTraceCSV(strings.NewReader(csvBadTraces[name]), CSVOptions{})
		if err == nil || !strings.Contains(err.Error(), "CSV row 2: ") {
			t.Errorf("%s: got error %v, want one naming row 2", name, err)
		}
	}
}

func TestSyntheticElasticPriorityFracs(t *testing.T) {
	base := TraceConfig{Jobs: 200, MaxBoards: 16}
	plain := Synthetic(base, 2024)
	marked := Synthetic(TraceConfig{Jobs: 200, MaxBoards: 16, ElasticFrac: 0.5, PriorityFrac: 0.5}, 2024)
	if len(plain) != len(marked) {
		t.Fatalf("job counts differ: %d vs %d", len(plain), len(marked))
	}
	nElastic, nPrio := 0, 0
	for i := range plain {
		// The primary stream must be untouched by the side draws.
		if plain[i].Arrival != marked[i].Arrival || plain[i].Boards != marked[i].Boards || plain[i].Service != marked[i].Service {
			t.Fatalf("job %d core fields perturbed by elastic fracs", i)
		}
		if plain[i].MinBoards != 0 || plain[i].Priority != 0 {
			t.Fatalf("plain trace has elastic fields set at job %d", i)
		}
		if m := marked[i].MinBoards; m != 0 {
			nElastic++
			if m < 1 || m > marked[i].Boards {
				t.Fatalf("job %d min_boards %d outside [1,%d]", i, m, marked[i].Boards)
			}
		}
		if p := marked[i].Priority; p != 0 {
			nPrio++
			if p < 1 || p > 3 {
				t.Fatalf("job %d priority %d outside [1,3]", i, p)
			}
		}
	}
	if nElastic == 0 || nPrio == 0 {
		t.Fatalf("fracs drew nothing: elastic=%d prio=%d", nElastic, nPrio)
	}
	// Deterministic in the seed.
	again := Synthetic(TraceConfig{Jobs: 200, MaxBoards: 16, ElasticFrac: 0.5, PriorityFrac: 0.5}, 2024)
	for i := range marked {
		if marked[i] != again[i] {
			t.Fatalf("synthetic trace with fracs not deterministic at job %d", i)
		}
	}
}
