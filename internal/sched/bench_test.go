package sched

import (
	"sync"
	"testing"
)

// BenchmarkSchedContention tracks what joint contention pricing costs on
// top of the isolation slowdown model, and what the placement-set memo
// recovers: "isolation" is the pre-contention baseline, "joint-cold"
// rebuilds the Interference model every run (every pricing is a fresh
// flow solve), "joint-memoized" shares one model across runs the way the
// sweep layer does, so recurring placement sets hit the memo. solves/op
// and memohits/op expose the split. "joint-reserve" is joint-cold with
// EASY reservations on, so backfills are judged against a reservation:
// pricings/op (solves plus memo hits) counts every joint pricing the run
// asks for, which the isolation bound on hopeless backfills keeps down.
// "joint-shared-2" runs two sims at once
// (best-fit and frag-aware) on one fresh model per iteration, the way the
// sweep's two workers share it: the only case where pricing can wait on
// the model's lock.
func BenchmarkSchedContention(b *testing.B) {
	jobs := 200
	if testing.Short() {
		jobs = 60
	}
	trace := Synthetic(TraceConfig{
		Jobs: jobs, ArrivalRate: 8, MeanService: 5, MaxBoards: 48,
		CommFrac: 0.6, ElasticFrac: 0.5, PriorityFrac: 0.3,
	}, 2024)
	baseCfg := func() Config {
		return Config{
			Policy: BestFit, CheckpointH: 2, RepairH: 10, HorizonH: 40,
			Slowdown: &CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: 2},
			Elastic:  true, Preempt: true,
		}
	}
	run := func(b *testing.B, cfg Config) *Metrics {
		m, err := Run(8, 8, trace, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}

	b.Run("isolation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, baseCfg())
		}
	})
	b.Run("joint-cold", func(b *testing.B) {
		var solves int64
		for i := 0; i < b.N; i++ {
			cfg := baseCfg()
			inf := &Interference{GroupBoards: 2, Taper: 0.25}
			cfg.Interference = inf
			run(b, cfg)
			solves += inf.Stats().Solves
		}
		b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
	})
	b.Run("joint-reserve", func(b *testing.B) {
		var solves, pricings int64
		for i := 0; i < b.N; i++ {
			cfg := baseCfg()
			cfg.Reservation = true
			inf := &Interference{GroupBoards: 2, Taper: 0.25}
			cfg.Interference = inf
			run(b, cfg)
			st := inf.Stats()
			solves += st.Solves
			pricings += st.Solves + st.MemoHits
		}
		b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
		b.ReportMetric(float64(pricings)/float64(b.N), "pricings/op")
	})
	b.Run("joint-memoized", func(b *testing.B) {
		cfg := baseCfg()
		inf := &Interference{GroupBoards: 2, Taper: 0.25}
		cfg.Interference = inf
		run(b, cfg) // warm the memo the way a sweep's first trial does
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, cfg)
		}
		st := inf.Stats()
		total := st.Solves + st.MemoHits
		if total > 0 {
			b.ReportMetric(100*float64(st.MemoHits)/float64(total), "%memo")
		}
	})
	b.Run("joint-shared-2", func(b *testing.B) {
		var solves int64
		for i := 0; i < b.N; i++ {
			inf := &Interference{GroupBoards: 2, Taper: 0.25}
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for w, policy := range []Policy{BestFit, FragAware} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cfg := baseCfg()
					cfg.Policy, cfg.Interference = policy, inf
					_, errs[w] = Run(8, 8, trace, nil, cfg)
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			solves += inf.Stats().Solves
		}
		b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
	})
}
