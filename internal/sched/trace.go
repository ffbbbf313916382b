// Package sched is a trace-driven discrete-event cluster scheduler over the
// HammingMesh board allocator (internal/alloc). The paper's allocation study
// (§IV-B) places static job mixes on a frozen grid; this package models the
// live cluster those mixes come from: jobs arrive over time, queue while the
// grid is full, run with a placement-dependent communication slowdown, get
// evicted when a board fails mid-run, and restart from their last checkpoint
// on the degraded grid. The headline outputs are the utilization-vs-MTBF
// curves (the dynamic counterpart of Fig. 10) plus job wait and slowdown
// percentiles and the goodput lost to restarts.
//
// The files:
//
//   - trace.go: job traces — synthetic generators (Poisson arrivals,
//     heavy-tailed Pareto durations, DNN-style job sizes drawn from the
//     workload package's Alibaba-like distribution) and a JSON loader.
//   - tracecsv.go: a CSV loader for Alibaba PAI / Microsoft Philly-style
//     traces (header aliases, GPU counts onto boards, seconds to hours).
//   - failures.go: the background outage process — Poisson outage times
//     thinned per rate so that outage sets are nested across rates under
//     one seed, each outage taking out a board region: independent board
//     failures are 1×1 outages cycling through the faults.BoardOrder
//     sequence, correlated bursts W×H rack/row regions at seeded anchors.
//   - slowdown.go: placement-dependent runtime scaling — the communication
//     share of a job slows by the alltoall bandwidth of its virtual
//     sub-HxMesh shape (flowsim estimate, cached per shape) and by the
//     upper-layer traffic fraction of the concrete placement.
//   - interference.go: joint contention pricing of all running placements
//     on the shared upper-layer fat-trees (Config.Interference).
//   - sched.go: the discrete-event loop and placement policies (first-fit,
//     best-fit contiguous, fragmentation-aware), EASY reservations,
//     checkpoint rollback and defragmentation.
//   - elastic.go: malleable jobs (shrunk admission, regrow, failure trims;
//     Config.Elastic) and priority preemption (Config.Preempt).
//
// Everything is deterministic in the explicit seeds: the same (trace,
// failure process, config) triple replays the exact same decision sequence,
// which the golden trace test pins.
package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"hammingmesh/internal/workload"
)

// TraceJob is one job of a cluster trace. Times are in hours.
type TraceJob struct {
	// ID identifies the job; synthetic traces number jobs in arrival
	// order starting at 0. IDs must be unique and non-negative.
	ID int32 `json:"id"`
	// Arrival is the submission time in hours from the trace start.
	Arrival float64 `json:"arrival_h"`
	// Boards is the job's size in boards; the scheduler shapes it with
	// workload.ShapeFor (as square as possible).
	Boards int `json:"boards"`
	// Service is the job's total work in hours on an ideal placement
	// (communication at full bandwidth). Placement slowdown stretches it.
	Service float64 `json:"service_h"`
	// CommFrac is the communication share of an iteration (0..1), the part
	// of Service that placement bandwidth stretches. Synthetic traces use
	// the generator's default; zero means compute-bound.
	CommFrac float64 `json:"comm_frac,omitempty"`
	// MinBoards, when positive and below Boards, marks the job as elastic:
	// under Config.Elastic the scheduler may run it on as few as MinBoards
	// boards (halving steps), stretching it by the width ratio. Zero means
	// rigid.
	MinBoards int `json:"min_boards,omitempty"`
	// Priority orders preemption: under Config.Preempt a queued job may
	// checkpoint-evict running jobs of strictly lower priority. Zero is
	// the default (lowest) class.
	Priority int `json:"priority,omitempty"`
}

// TraceConfig parameterizes the synthetic trace generator.
type TraceConfig struct {
	// Jobs is the number of jobs to generate.
	Jobs int
	// ArrivalRate is the Poisson arrival rate in jobs/hour.
	ArrivalRate float64
	// MeanService is the mean job duration in hours. Durations are
	// heavy-tailed Pareto with tail exponent paretoAlpha and this mean,
	// capped at 50×MeanService.
	MeanService float64
	// AccelsPerBoard converts sampled accelerator counts to boards
	// (4 for Hx2Mesh, 16 for Hx4Mesh). Zero means 4.
	AccelsPerBoard int
	// MaxBoards discards sampled jobs larger than this (the trace's giant
	// jobs never run on a small cluster, as in §IV-B). Zero means no cap.
	MaxBoards int
	// CommFrac is the communication share assigned to every job.
	CommFrac float64
	// ElasticFrac is the fraction of jobs marked elastic (MinBoards set to
	// ~Boards/4). Drawn from a side RNG stream so traces generated with
	// zero fracs stay byte-identical to older versions.
	ElasticFrac float64
	// PriorityFrac is the fraction of jobs given an elevated priority
	// (uniform in 1..3); the rest stay at the default class 0.
	PriorityFrac float64
}

// paretoAlpha is the Pareto tail exponent of synthetic service times (> 1
// so the mean exists): a heavy tail with most jobs short, as in the MLaaS
// traces the paper samples from. It is typed so that constant arithmetic
// on it rounds every step to float64, as the same arithmetic at run time
// does (untyped, (1.8-1)/1.8 is exact and rounds differently).
const paretoAlpha float64 = 1.8

// Synthetic generates a trace of cfg.Jobs jobs under the seed: exponential
// inter-arrival times (Poisson process), Pareto service times, and sizes
// from workload.AlibabaLike, rounded up to whole boards. The trace is
// sorted by arrival and deterministic in (cfg, seed).
func Synthetic(cfg TraceConfig, seed int64) []TraceJob {
	if cfg.Jobs <= 0 {
		return nil
	}
	if cfg.ArrivalRate <= 0 {
		cfg.ArrivalRate = 1
	}
	if cfg.MeanService <= 0 {
		cfg.MeanService = 4
	}
	dist := workload.AlibabaLike()
	apb := cfg.AccelsPerBoard
	if apb <= 0 {
		apb = 4
	}
	// Pareto(xm, alpha) has mean xm·alpha/(alpha-1); pick xm for MeanService.
	xm := cfg.MeanService * (paretoAlpha - 1) / paretoAlpha
	rng := rand.New(rand.NewSource(seed))
	// Elastic/priority marks come from a separate stream so enabling them
	// never perturbs the arrival/size/service draws of existing traces.
	var rng2 *rand.Rand
	if cfg.ElasticFrac > 0 || cfg.PriorityFrac > 0 {
		rng2 = rand.New(rand.NewSource(seed ^ 0x5eed9e1a57))
	}
	jobs := make([]TraceJob, 0, cfg.Jobs)
	t := 0.0
	for len(jobs) < cfg.Jobs {
		t += rng.ExpFloat64() / cfg.ArrivalRate
		boards := (dist.Sample(rng) + apb - 1) / apb
		service := xm / math.Pow(1-rng.Float64(), 1/paretoAlpha)
		if service > 50*cfg.MeanService {
			service = 50 * cfg.MeanService
		}
		if cfg.MaxBoards > 0 && boards > cfg.MaxBoards {
			continue // oversized sample: discard, keep the arrival clock
		}
		tj := TraceJob{
			ID:       int32(len(jobs)),
			Arrival:  t,
			Boards:   boards,
			Service:  service,
			CommFrac: cfg.CommFrac,
		}
		if rng2 != nil {
			if cfg.ElasticFrac > 0 && rng2.Float64() < cfg.ElasticFrac && boards > 1 {
				tj.MinBoards = (boards + 3) / 4
			}
			if cfg.PriorityFrac > 0 && rng2.Float64() < cfg.PriorityFrac {
				tj.Priority = 1 + rng2.Intn(3)
			}
		}
		jobs = append(jobs, tj)
	}
	return jobs
}

// ParseTrace decodes a JSON trace: an array of TraceJob objects. Jobs are
// validated and returned sorted by arrival time (stable for equal times).
func ParseTrace(data []byte) ([]TraceJob, error) {
	var jobs []TraceJob
	if err := json.Unmarshal(data, &jobs); err != nil {
		return nil, fmt.Errorf("sched: bad trace JSON: %w", err)
	}
	return finishTrace(jobs)
}

// finishTrace validates decoded trace jobs and returns them sorted by
// arrival (stable for equal times). Shared by the JSON and CSV loaders.
func finishTrace(jobs []TraceJob) ([]TraceJob, error) {
	seen := make(map[int32]bool, len(jobs))
	for i, j := range jobs {
		switch {
		case j.ID < 0:
			return nil, fmt.Errorf("sched: trace job %d has negative id %d", i, j.ID)
		case seen[j.ID]:
			return nil, fmt.Errorf("sched: duplicate trace job id %d", j.ID)
		case j.Arrival < 0:
			return nil, fmt.Errorf("sched: trace job %d arrives at negative time %g", j.ID, j.Arrival)
		case j.Boards < 1:
			return nil, fmt.Errorf("sched: trace job %d has %d boards, want ≥1", j.ID, j.Boards)
		case j.Service <= 0:
			return nil, fmt.Errorf("sched: trace job %d has non-positive service %g", j.ID, j.Service)
		case j.CommFrac < 0 || j.CommFrac > 1:
			return nil, fmt.Errorf("sched: trace job %d has comm_frac %g outside [0,1]", j.ID, j.CommFrac)
		case j.MinBoards < 0 || j.MinBoards > j.Boards:
			return nil, fmt.Errorf("sched: trace job %d has min_boards %d outside [0,%d]", j.ID, j.MinBoards, j.Boards)
		case j.Priority < 0:
			return nil, fmt.Errorf("sched: trace job %d has negative priority %d", j.ID, j.Priority)
		}
		seen[j.ID] = true
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Arrival < jobs[b].Arrival })
	return jobs, nil
}

// LoadTrace reads and parses a JSON trace from r.
func LoadTrace(r io.Reader) ([]TraceJob, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sched: reading trace: %w", err)
	}
	return ParseTrace(data)
}
