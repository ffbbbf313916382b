package sched

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file loads cluster traces from CSV files in the shape of the public
// MLaaS traces the paper samples from (Alibaba PAI, Microsoft Philly).
// Columns are matched by header name, case-insensitively, with the common
// aliases those traces use; unknown columns are ignored. Times may be given
// in hours (*_h) or seconds (*_s, divided by 3600), sizes in boards or in
// accelerators (gpus, divided by AccelsPerBoard rounding up).

// CSVOptions parameterizes ParseTraceCSV.
type CSVOptions struct {
	// AccelsPerBoard converts accelerator-count columns (gpus, num_gpus)
	// to boards, rounding up. Zero means 4.
	AccelsPerBoard int
	// DefaultCommFrac is assigned to jobs whose row has no comm_frac
	// column or leaves it empty.
	DefaultCommFrac float64
}

// csvCol identifies a recognized logical column.
type csvCol int

const (
	colID csvCol = iota
	colArrivalH
	colArrivalS
	colBoards
	colGPUs
	colServiceH
	colServiceS
	colCommFrac
	colMinBoards
	colMinGPUs
	colPriority
	colUnknown
)

// classifyHeader maps a header cell to a logical column.
func classifyHeader(h string) csvCol {
	switch strings.ToLower(strings.TrimSpace(h)) {
	case "id", "job_id", "jobid", "job":
		return colID
	case "arrival_h", "submit_time_h", "arrival":
		return colArrivalH
	case "arrival_s", "submit_time_s", "submit_time":
		return colArrivalS
	case "boards", "num_boards":
		return colBoards
	case "gpus", "num_gpus", "gpu_num", "accels":
		return colGPUs
	case "service_h", "duration_h", "run_time_h", "service":
		return colServiceH
	case "service_s", "duration_s", "run_time_s", "duration", "run_time":
		return colServiceS
	case "comm_frac", "commfrac":
		return colCommFrac
	case "min_boards":
		return colMinBoards
	case "min_gpus":
		return colMinGPUs
	case "priority", "prio":
		return colPriority
	}
	return colUnknown
}

// ParseTraceCSV decodes a CSV trace. The first row must be a header naming
// the columns; an arrival, a size (boards or gpus), and a service/duration
// column are required. Rows missing an id are numbered sequentially in file
// order. The result is validated and sorted by arrival like ParseTrace.
func ParseTraceCSV(r io.Reader, opts CSVOptions) ([]TraceJob, error) {
	apb := opts.AccelsPerBoard
	if apb <= 0 {
		apb = 4
	}
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sched: reading CSV header: %w", err)
	}
	cols := make(map[csvCol]int, len(header))
	for i, h := range header {
		c := classifyHeader(h)
		if c == colUnknown {
			continue
		}
		if _, dup := cols[c]; dup {
			return nil, fmt.Errorf("sched: CSV has two columns for %q", strings.TrimSpace(h))
		}
		cols[c] = i
	}
	if _, ok := cols[colArrivalH]; !ok {
		if _, ok := cols[colArrivalS]; !ok {
			return nil, fmt.Errorf("sched: CSV has no arrival column (arrival_h, submit_time_h, arrival_s, submit_time_s)")
		}
	}
	if _, ok := cols[colBoards]; !ok {
		if _, ok := cols[colGPUs]; !ok {
			return nil, fmt.Errorf("sched: CSV has no size column (boards, gpus, num_gpus)")
		}
	}
	if _, ok := cols[colServiceH]; !ok {
		if _, ok := cols[colServiceS]; !ok {
			return nil, fmt.Errorf("sched: CSV has no service column (service_h, duration_h, duration_s, run_time_s)")
		}
	}

	field := func(rec []string, c csvCol) (string, bool) {
		i, ok := cols[c]
		if !ok || i >= len(rec) {
			return "", false
		}
		v := strings.TrimSpace(rec[i])
		return v, v != ""
	}
	num := func(rec []string, c csvCol, row int) (float64, bool, error) {
		v, ok := field(rec, c)
		if !ok {
			return 0, false, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, false, fmt.Errorf("sched: CSV row %d: bad number %q for %s", row, v, header[cols[c]])
		}
		return f, true, nil
	}
	// count is num for a size or priority column: the value must be a
	// whole number below 2^53 in magnitude (where a float64 still holds
	// every integer exactly), never truncated.
	count := func(rec []string, c csvCol, row int) (int, bool, error) {
		f, ok, err := num(rec, c, row)
		if err != nil || !ok {
			return 0, false, err
		}
		if f != math.Trunc(f) || math.Abs(f) >= 1<<53 {
			v, _ := field(rec, c)
			return 0, false, fmt.Errorf("sched: CSV row %d: %s %q is not a whole number below 2^53", row, header[cols[c]], v)
		}
		return int(f), true, nil
	}

	var jobs []TraceJob
	row := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sched: reading CSV row %d: %w", row+1, err)
		}
		row++
		tj := TraceJob{ID: int32(len(jobs)), CommFrac: opts.DefaultCommFrac}
		if v, ok := field(rec, colID); ok {
			id, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("sched: CSV row %d: bad id %q", row, v)
			}
			tj.ID = int32(id)
		}
		if f, ok, err := num(rec, colArrivalH, row); err != nil {
			return nil, err
		} else if ok {
			tj.Arrival = f
		} else if f, ok, err := num(rec, colArrivalS, row); err != nil {
			return nil, err
		} else if ok {
			tj.Arrival = f / 3600
		} else {
			return nil, fmt.Errorf("sched: CSV row %d: missing arrival", row)
		}
		if n, ok, err := count(rec, colBoards, row); err != nil {
			return nil, err
		} else if ok {
			tj.Boards = n
		} else if n, ok, err := count(rec, colGPUs, row); err != nil {
			return nil, err
		} else if ok {
			tj.Boards = (n + apb - 1) / apb
		} else {
			return nil, fmt.Errorf("sched: CSV row %d: missing size", row)
		}
		if f, ok, err := num(rec, colServiceH, row); err != nil {
			return nil, err
		} else if ok {
			tj.Service = f
		} else if f, ok, err := num(rec, colServiceS, row); err != nil {
			return nil, err
		} else if ok {
			tj.Service = f / 3600
		} else {
			return nil, fmt.Errorf("sched: CSV row %d: missing service", row)
		}
		if f, ok, err := num(rec, colCommFrac, row); err != nil {
			return nil, err
		} else if ok {
			tj.CommFrac = f
		}
		if n, ok, err := count(rec, colMinBoards, row); err != nil {
			return nil, err
		} else if ok {
			tj.MinBoards = n
		} else if n, ok, err := count(rec, colMinGPUs, row); err != nil {
			return nil, err
		} else if ok {
			tj.MinBoards = (n + apb - 1) / apb
		}
		if n, ok, err := count(rec, colPriority, row); err != nil {
			return nil, err
		} else if ok {
			tj.Priority = n
		}
		jobs = append(jobs, tj)
	}
	return finishTrace(jobs)
}
