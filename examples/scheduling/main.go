// Scheduling: the trace-driven cluster scheduler end to end — synthesize a
// job trace, replay it on a board grid with a background failure process,
// watch jobs checkpoint, get evicted and restart, then sweep utilization
// against MTBF and checkpoint interval on the experiment runner.
package main

import (
	"fmt"
	"log"
	"strings"

	"hammingmesh/internal/runner"
	"hammingmesh/internal/sched"
)

func main() {
	// 1. A synthetic trace: Poisson arrivals, heavy-tailed durations,
	// DNN-style sizes from the Alibaba-like distribution.
	trace := sched.Synthetic(sched.TraceConfig{
		Jobs: 80, ArrivalRate: 4, MeanService: 3, MaxBoards: 12, CommFrac: 0.3,
	}, 7)
	fmt.Printf("synthetic trace: %d jobs arriving over %.1f hours\n",
		len(trace), trace[len(trace)-1].Arrival)

	// Traces also load from JSON (e.g. exported from a real cluster).
	json := `[{"id":0,"arrival_h":0,"boards":4,"service_h":2.5,"comm_frac":0.4}]`
	if loaded, err := sched.ParseTrace([]byte(json)); err == nil {
		fmt.Printf("JSON loader: job %d wants %d boards for %.1fh\n\n",
			loaded[0].ID, loaded[0].Boards, loaded[0].Service)
	}

	// 2. One scheduler run on a 4x4-board Hx2Mesh: boards fail with MTBF
	// 30h (identities from the seeded faults board sampler), running jobs
	// are evicted and restart from their last 2h checkpoint, repairs take
	// 10h, and placements pay their communication slowdown.
	pool := runner.NewSeeded(0, 1)
	c, err := pool.Cluster("hx2mesh", "tiny")
	if err != nil {
		log.Fatal(err)
	}
	rate := float64(c.Grid.X*c.Grid.Y) / 30 // aggregate failures/hour at a 30h per-board MTBF
	fails := sched.NewFailures(sched.BoardSequence(c.Hx, 9), 40, rate, 9).Thin(rate)
	m, err := sched.Run(c.Grid.X, c.Grid.Y, trace, fails, sched.Config{
		Policy: sched.BestFit, CheckpointH: 2, RepairH: 10, HorizonH: 40,
		Slowdown: sched.NewCommSlowdown(c.Hx.Cfg.A, c.Hx.Cfg.B), RecordDecisions: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one run (bestfit, MTBF 30h, 2h checkpoints):\n")
	fmt.Printf("  utilization %.1f%%, goodput %.1f%%, %d/%d jobs done, %d evictions, %.1f board-h lost\n",
		100*m.Utilization, 100*m.Goodput, m.Completed, m.Arrived, m.Evictions, m.LostBoardH)
	fmt.Println("  first decisions:")
	for _, d := range m.Decisions[:6] {
		fmt.Printf("    %s\n", d)
	}

	// 3. The utilization-vs-MTBF sweep: parallel seeded trials per
	// (policy, checkpoint, MTBF) point; failure sets are nested across
	// MTBFs within a trial, so the goodput curve measures degradation,
	// not sampling noise.
	pts, err := pool.SchedSweep(c, runner.SchedSweepConfig{
		Trace:        sched.TraceConfig{Jobs: 150, ArrivalRate: 4, MeanService: 3, MaxBoards: 12, CommFrac: 0.3},
		Base:         sched.Config{HorizonH: 60, RepairH: 10},
		MTBFs:        []float64{0, 120, 40, 12},
		CheckpointsH: []float64{2},
		Policies:     []sched.Policy{sched.FirstFit, sched.BestFit, sched.FragAware},
		Trials:       4,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nutilization vs MTBF (goodput: useful board-hours / raw board-hours):")
	for i, pt := range pts {
		if i%4 == 0 {
			fmt.Printf("  %s:\n", pt.Policy)
		}
		mtbf := "   inf"
		if pt.MTBFh > 0 {
			mtbf = fmt.Sprintf("%6g", pt.MTBFh)
		}
		fmt.Printf("    mtbf %sh: goodput %5.1f%%  (lost to restarts %4.1f%%, %4.1f evictions/trial)\n",
			mtbf, 100*pt.Goodput, 100*pt.LostFrac, pt.Evictions)
	}

	// 4. Reservation vs greedy backfill: an adversarial trace — four small
	// jobs fill the grid, a 16-board job arrives behind them, and a steady
	// small-job stream keeps part of the grid busy for hours. Greedy
	// backfill starves the big job (all 16 boards are never simultaneously
	// free); an EASY reservation holds the projected boards and admits
	// small jobs only if they finish before it, so the big job starts the
	// moment the first wave completes.
	adversarial := []sched.TraceJob{}
	id := int32(0)
	add := func(arrival float64, boards int, service float64) {
		adversarial = append(adversarial, sched.TraceJob{ID: id, Arrival: arrival, Boards: boards, Service: service})
		id++
	}
	for i := 0; i < 4; i++ {
		add(0, 4, 3)
	}
	add(0.5, 16, 4) // the large job
	for i := 0; i < 20; i++ {
		add(1+0.7*float64(i), 4, 3)
	}
	fmt.Println("\nreservation vs greedy backfill (adversarial small-job stream, 16-board job):")
	for _, reservation := range []bool{false, true} {
		m, err := sched.Run(c.Grid.X, c.Grid.Y, adversarial, nil,
			sched.Config{Policy: sched.FirstFit, HorizonH: 60, Reservation: reservation})
		if err != nil {
			log.Fatal(err)
		}
		mode := "greedy     "
		if reservation {
			mode = "reservation"
		}
		fmt.Printf("  %s: max large-job wait %5.1fh, utilization %.1f%%, %d reservations\n",
			mode, m.MaxWaitLarge, 100*m.Utilization, m.Reservations)
	}

	// 5. Correlated bursts and defragmentation: a 2x1-rack burst process
	// merges with the independent failures, and a fragmentation threshold
	// triggers checkpoint-migrate repacking (migrated jobs pay the
	// transfer cost as lost work).
	bursts := sched.NewBursts(c.Grid.X, c.Grid.Y, sched.BurstShape{W: 2, H: 1}, 40, 0.08, 9)
	m2, err := sched.Run(c.Grid.X, c.Grid.Y, trace, sched.MergeFailures(fails, bursts.Thin(0.08)), sched.Config{
		Policy: sched.BestFit, CheckpointH: 2, RepairH: 10, HorizonH: 40,
		Slowdown:    sched.NewCommSlowdown(c.Hx.Cfg.A, c.Hx.Cfg.B),
		Reservation: true, DefragThreshold: 0.3, DefragCostH: 0.05,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nburst+defrag run (%d bursts sampled, threshold 0.3):\n", bursts.Sampled())
	fmt.Printf("  goodput %.1f%%, %d evictions, %d defrag passes migrating %d jobs (%.1f board-h overhead)\n",
		100*m2.Goodput, m2.Evictions, m2.Defrags, m2.Migrations, m2.MigratedBoardH)

	// 6. Contention-aware scheduling with elastic jobs: the trace marks
	// half the jobs malleable and a third high-priority; the Interference
	// model prices every placement jointly (a flow solve over the shared
	// upper-layer fat-trees), so jobs whose columns interleave inside a
	// switch group run slower than the isolation estimate and are
	// re-stretched whenever the contention set changes. Elastic jobs admit
	// shrunk when their full shape will not fit and regrow later; priority
	// jobs may preempt (checkpoint-evict) strictly lower-priority ones.
	v3trace := sched.Synthetic(sched.TraceConfig{
		Jobs: 60, ArrivalRate: 8, MeanService: 5, MaxBoards: 24,
		CommFrac: 0.6, ElasticFrac: 0.5, PriorityFrac: 0.3,
	}, 2024)
	inf := &sched.Interference{GroupBoards: 2, Taper: 0.25}
	v3cfg := sched.Config{
		Policy: sched.BestFit, CheckpointH: 2, RepairH: 10, HorizonH: 40,
		Slowdown:     &sched.CommSlowdown{BoardA: c.Hx.Cfg.A, BoardB: c.Hx.Cfg.B, GroupBoards: 2},
		Interference: inf, Elastic: true, Preempt: true,
	}
	m3, err := sched.Run(c.Grid.X, c.Grid.Y, v3trace, nil, v3cfg)
	if err != nil {
		log.Fatal(err)
	}
	iso := v3cfg
	iso.Interference = nil
	mIso, err := sched.Run(c.Grid.X, c.Grid.Y, v3trace, nil, iso)
	if err != nil {
		log.Fatal(err)
	}
	st := inf.Stats()
	fmt.Println("\ncontention pricing + elastic jobs (vs isolation pricing, same trace):")
	fmt.Printf("  joint    : goodput %.1f%%, slowdown p99 %.2f, %d restretches, %d shrinks, %d regrows, %d preemptions\n",
		100*m3.Goodput, m3.SlowP99, m3.Restretches, m3.Shrinks, m3.Regrows, m3.Preemptions)
	fmt.Printf("  isolation: goodput %.1f%%, slowdown p99 %.2f (optimistic — ignores cross-job sharing)\n",
		100*mIso.Goodput, mIso.SlowP99)
	fmt.Printf("  flow solves %d, memoized %d (placement sets recur as the mix churns)\n", st.Solves, st.MemoHits)

	// 7. Real traces load from Alibaba/Philly-style CSV: columns are
	// matched by header name with the common aliases, GPU counts are
	// ceil-divided onto boards, and seconds convert to hours.
	csv := "job_id,submit_time_s,num_gpus,duration_s,min_gpus,priority\n" +
		"0,0,16,9000,4,1\n" +
		"1,1800,8,5400,,\n"
	csvJobs, err := sched.ParseTraceCSV(strings.NewReader(csv), sched.CSVOptions{
		AccelsPerBoard: c.Hx.Cfg.A * c.Hx.Cfg.B, DefaultCommFrac: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nCSV loader (Philly-style headers, GPUs -> boards, seconds -> hours):")
	for _, j := range csvJobs {
		fmt.Printf("  job %d: %d boards (min %d, priority %d) for %.1fh arriving at %.1fh\n",
			j.ID, j.Boards, j.MinBoards, j.Priority, j.Service, j.Arrival)
	}
}
