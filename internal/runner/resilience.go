package runner

import (
	"context"
	"fmt"

	"hammingmesh/internal/core"
	"hammingmesh/internal/faults"
	"hammingmesh/internal/journal"
	"hammingmesh/internal/netsim"
)

// The resilience sweep's defaults, shared by hxsim -pattern resilience and
// hxd's resilience kind: link-failure fractions from 0 up to
// DefaultResilienceMaxFrac in DefaultResilienceSteps even steps.
const (
	DefaultResilienceMaxFrac = 0.2
	DefaultResilienceSteps   = 5
)

// ResilienceFracs returns steps link-failure fractions evenly spaced from
// 0 to maxFrac (maxFrac alone when steps is 1); a maxFrac <= 0 means
// DefaultResilienceMaxFrac.
func ResilienceFracs(maxFrac float64, steps int) []float64 {
	if maxFrac <= 0 {
		maxFrac = DefaultResilienceMaxFrac
	}
	fracs := make([]float64, steps)
	for i := range fracs {
		if steps > 1 {
			fracs[i] = maxFrac * float64(i) / float64(steps-1)
		} else {
			fracs[i] = maxFrac
		}
	}
	return fracs
}

// ResiliencePoint is one point of a resilience sweep: delivered alltoall
// bandwidth and makespan at one link-failure fraction, aggregated over the
// seeded trials.
type ResiliencePoint struct {
	// FailFrac is the requested fraction of failed cables.
	FailFrac float64
	// FailedLinks is the mean number of cables actually failed per trial
	// (the connectivity-preserving sampler may fail fewer near the
	// disconnection threshold).
	FailedLinks float64
	// Share is the mean delivered alltoall bandwidth as a share of
	// injection, averaged over trials.
	Share float64
	// MinShare is the worst trial's share.
	MinShare float64
	// Makespan is the mean per-shift makespan in ns.
	Makespan float64
	// Trials is the number of seeded trials aggregated.
	Trials int
}

// resilienceTrial is one (fraction, trial) job's result. Fields are
// exported (and jobs return pointers) so checkpoints can JSON round-trip
// it bit-exactly.
type resilienceTrial struct {
	Share    float64
	Makespan float64
	Links    int
}

// ResilienceFingerprint canonicalizes a resilience sweep's full parameter
// set into a content hash for checkpoint binding (see
// SchedSweepConfig.Fingerprint). Config fields that never change results
// are excluded: Metrics and Trace (obs contract) and Shards (results are
// shard-count invariant), so a sweep journaled at one -sim-shards resumes
// at any other.
func ResilienceFingerprint(c *core.Cluster, cfg netsim.Config, bytes int64, fracs []float64, trials, shifts int, seed int64, boards int) string {
	cfg.Metrics, cfg.Trace, cfg.Shards = nil, nil, 0
	return journal.KeyOf(struct {
		Kind   string
		Family string
		Nodes  int
		Net    netsim.Config
		Bytes  int64
		Fracs  []float64
		Trials int
		Shifts int
		Seed   int64
		Boards int
	}{
		Kind: "resilience-sweep", Family: string(c.Net.Meta.Family),
		Nodes: c.Comp.NumEndpoints(), Net: cfg, Bytes: bytes, Fracs: fracs,
		Trials: trials, Shifts: shifts, Seed: seed, Boards: boards,
	})
}

// ResilienceSweep measures graceful degradation (§III-E): for each
// link-failure fraction it builds `trials` independent connectivity-
// preserving fault sets — on top of `boards` dead boards when the cluster
// is an HxMesh family — recomputes routing over each degraded fabric, and
// packet-simulates `shifts` sampled alltoall shift iterations among the
// surviving endpoints, returning delivered bandwidth and makespan per
// fraction. Every (fraction, trial) pair is one pool job, so the sweep
// parallelizes across workers while staying deterministic for any worker
// count.
//
// Within one trial seed the failed-link sets are *nested* across fractions,
// so the per-trial bandwidth trajectory measures pure degradation: a
// higher fraction only ever removes paths the lower fraction still had.
// The BFS-validated acceptance sequence is computed once per trial at the
// highest fraction (a first round of pool jobs) and lower fractions replay
// prefixes of it, instead of re-validating every cable per point.
func (p *Pool) ResilienceSweep(c *core.Cluster, cfg netsim.Config, bytes int64, fracs []float64, trials, shifts int, seed int64, boards int) ([]ResiliencePoint, error) {
	return p.ResilienceSweepJournaled(context.Background(), c, cfg, bytes, fracs, trials, shifts, seed, boards, nil)
}

// ResilienceSweepJournaled is ResilienceSweep with cancellation and
// crash-safe resume: with a non-nil checkpoint (opened against
// ResilienceFingerprint) each completed (fraction, trial) result is
// journaled as it finishes and skipped on rerun, and a killed-and-resumed
// sweep aggregates byte-identical points to an uninterrupted one. The
// per-trial connectivity-BFS round is deterministic from the seed and is
// recomputed rather than journaled.
func (p *Pool) ResilienceSweepJournaled(ctx context.Context, c *core.Cluster, cfg netsim.Config, bytes int64, fracs []float64, trials, shifts int, seed int64, boards int, ck *Checkpoint) ([]ResiliencePoint, error) {
	if trials <= 0 {
		trials = 1
	}
	if c.Comp.NumEndpoints() < 2 {
		return nil, fmt.Errorf("runner: need ≥2 endpoints")
	}
	if boards > 0 && c.Hx == nil {
		return nil, fmt.Errorf("runner: board faults need an HxMesh-family cluster, got %s", c.Net.Meta.Family)
	}
	maxFrac := 0.0
	for _, f := range fracs {
		if f > maxFrac {
			maxFrac = f
		}
	}
	inj := c.SimInjectionGBps()

	// Round 1: one job per trial validates the nested failure sequence at
	// the highest fraction (the expensive per-cable connectivity BFS).
	baseBuilder := func(tr int) *faults.Builder {
		b := faults.NewBuilder(c.Comp)
		if boards > 0 {
			b.SampleFailedBoards(c.Hx, boards, JobSeed(seed, tr))
		}
		return b
	}
	seqJobs := make([]Job, trials)
	for tr := 0; tr < trials; tr++ {
		tr := tr
		seqJobs[tr] = Job{
			Name: fmt.Sprintf("resilience-seq-t%d", tr),
			Run: func(ctx *Ctx) (any, error) {
				return baseBuilder(tr).AcceptedConnectedLinks(maxFrac, JobSeed(seed, tr)), nil
			},
		}
	}
	seqResults := p.RunCtx(ctx, seqJobs)
	if err := FirstErr(seqResults); err != nil {
		return nil, err
	}
	seqs := make([][]int32, trials)
	for tr := range seqs {
		seqs[tr] = seqResults[tr].Value.([]int32)
	}

	// Round 2: one job per (fraction, trial) replays a prefix of the
	// trial's accepted sequence (every prefix preserves connectivity) and
	// simulates the sampled shifts.
	jobs := make([]Job, 0, len(fracs)*trials)
	for fi, frac := range fracs {
		for tr := 0; tr < trials; tr++ {
			frac, tr := frac, tr
			jobCfg := cfg
			jobCfg.Seed = JobSeed(cfg.Seed, fi*trials+tr)
			jobCfg.Metrics = p.obsReg
			jobs = append(jobs, Job{
				Name: fmt.Sprintf("resilience-f%.3f-t%d", frac, tr),
				Run: func(ctx *Ctx) (any, error) {
					b := baseBuilder(tr)
					prefix := seqs[tr]
					if n := faults.LinkCount(c.Comp, frac); n < len(prefix) {
						prefix = prefix[:n]
					}
					for _, pid := range prefix {
						b.FailLink(pid)
					}
					fs := b.Build()
					fc := c.WithFaults(fs)
					eps := fc.AliveEndpoints()
					sumShare, sumMk := 0.0, 0.0
					sampled := netsim.SampleShifts(len(eps), shifts, JobSeed(seed, tr)^0x5deece66d)
					// One simulator per job, reset between shifts: queue and
					// accounting arrays are reused across the whole trial.
					sim := netsim.New(fc.Comp, fc.Table, jobCfg)
					for _, shift := range sampled {
						res, err := sim.Run(netsim.ShiftFlows(eps, shift, bytes))
						if err != nil {
							return nil, err
						}
						sumShare += res.AggregateGBps() / float64(len(eps)) / inj
						sumMk += res.Makespan
					}
					n := float64(len(sampled))
					return &resilienceTrial{
						Share:    sumShare / n,
						Makespan: sumMk / n,
						Links:    len(prefix),
					}, nil
				},
			})
		}
	}
	results, err := RunJournaled[resilienceTrial](p, ctx, jobs, ck)
	if err != nil {
		return nil, err
	}
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	points := make([]ResiliencePoint, len(fracs))
	for fi, frac := range fracs {
		pt := ResiliencePoint{FailFrac: frac, Trials: trials}
		for tr := 0; tr < trials; tr++ {
			t := results[fi*trials+tr].Value.(*resilienceTrial)
			pt.Share += t.Share / float64(trials)
			pt.Makespan += t.Makespan / float64(trials)
			pt.FailedLinks += float64(t.Links) / float64(trials)
			if tr == 0 || t.Share < pt.MinShare {
				pt.MinShare = t.Share
			}
		}
		points[fi] = pt
	}
	return points, nil
}
