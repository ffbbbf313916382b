// Package serve is the simulation-as-a-service layer: an HTTP/JSON
// front-end that turns the repo's experiment entry points (the
// runner.Pool sweeps) into a long-lived daemon. Every request is
// canonicalized — defaults filled, fields emitted in sorted order, inert
// options stripped — and hashed into a SHA-256 content address. The
// determinism contract of the layers below (equal canonical config ⇒
// bit-identical result, independent of worker count and shard count)
// makes that address a sound cache key: repeats are served from a
// byte-accounted LRU result cache, concurrent identical requests coalesce
// onto one in-flight computation, and distinct requests compute one at a
// time on the shared runner pool, behind a bounded queue whose overflow is
// rejected (backpressure).
package serve

import (
	"encoding/json"
	"fmt"

	"hammingmesh/internal/core"
	"hammingmesh/internal/journal"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/sched"
)

// The experiment kinds hxd serves; each maps onto one runner.Pool entry
// point (or core.Cluster measurement).
const (
	KindAlltoallFlow   = "alltoall_flow"   // runner.Pool.AlltoallFlowShare
	KindAlltoallPacket = "alltoall_packet" // runner.Pool.AlltoallPacketShare
	KindPermutation    = "permutation"     // runner.Pool.PermutationSweepGBps
	KindAllreduce      = "allreduce"       // core.Cluster.AllreduceShare
	KindResilience     = "resilience"      // runner.Pool.ResilienceSweep
	KindSched          = "sched"           // runner.Pool.SchedSweep
)

// Kinds lists the supported experiment kinds.
func Kinds() []string {
	return []string{KindAlltoallFlow, KindAlltoallPacket, KindPermutation,
		KindAllreduce, KindResilience, KindSched}
}

// Request is the wire form of one experiment request (POST
// /v1/experiments). Zero values mean "use the default" — the
// canonicalizer fills them in, so an explicit default and an omitted
// field are the same request and hit the same cache entry. Fields that
// cannot influence the selected kind's result are inert and stripped
// during canonicalization.
type Request struct {
	// Kind selects the experiment (see Kinds). Required.
	Kind string `json:"kind"`
	// Topo is a Table II topology name (default hx2mesh).
	Topo string `json:"topo,omitempty"`
	// Size is the cluster size: tiny, small or large (default tiny).
	Size string `json:"size,omitempty"`
	// Bytes is the per-flow / per-peer transfer size for the
	// packet-level kinds (default 256 KiB).
	Bytes int64 `json:"bytes,omitempty"`
	// Shifts is the sampled alltoall shift-iteration count (default 8;
	// 4 for resilience points).
	Shifts int `json:"shifts,omitempty"`
	// Perms is the sampled permutation count (default 1).
	Perms int `json:"perms,omitempty"`
	// Seed drives every seeded draw of the experiment (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Credit switches the packet simulator to credit-based flow control.
	Credit bool `json:"credit,omitempty"`
	// Shards is accepted for CLI parity but inert: netsim.Result is
	// bit-identical for every shard count, so it is always stripped.
	Shards int `json:"shards,omitempty"`
	// Workers is accepted for CLI parity but inert: sweep results are
	// independent of the pool's worker count, so it is always stripped.
	Workers int `json:"workers,omitempty"`
	// FailLinks fails this fraction of cables (resilience: the sweep's
	// upper bound, default 0.2).
	FailLinks float64 `json:"fail_links,omitempty"`
	// FailBoards powers off whole boards (HxMesh families).
	FailBoards int `json:"fail_boards,omitempty"`
	// FailSeed seeds the fault samplers (default 1); inert unless the
	// request actually injects faults.
	FailSeed int64 `json:"fail_seed,omitempty"`
	// Trials is the seeded trial count per resilience/sched point
	// (default 3 / 2).
	Trials int `json:"trials,omitempty"`
	// Steps is the resilience sweep's point count (default 5).
	Steps int `json:"steps,omitempty"`
	// Jobs is the sched synthetic-trace length (default 120).
	Jobs int `json:"jobs,omitempty"`
	// HorizonH is the sched simulation horizon in hours (default 40).
	HorizonH float64 `json:"horizon_h,omitempty"`
	// MTBFs are the sched per-board MTBF values in hours, 0 = no
	// failures (default [0, 40]).
	MTBFs []float64 `json:"mtbfs,omitempty"`
	// CkptsH are the sched checkpoint intervals in hours (default [2]).
	CkptsH []float64 `json:"ckpts_h,omitempty"`
	// Policies are the sched placement policies (default [firstfit]).
	Policies []string `json:"policies,omitempty"`
	// Reserve enables EASY reservation backfill in sched runs.
	Reserve bool `json:"reserve,omitempty"`
	// Interference enables joint contention pricing in sched runs: jobs
	// are admitted and re-stretched at the slowdown a flow solve over the
	// shared upper-layer fat-trees assigns them.
	Interference bool `json:"interference,omitempty"`
	// Elastic enables malleable jobs in sched runs (shrunk admission,
	// regrow, failure trims; a fixed fraction of the synthetic trace is
	// marked elastic).
	Elastic bool `json:"elastic,omitempty"`
	// Preempt enables priority preemption in sched runs (a fixed fraction
	// of the synthetic trace gets elevated priority).
	Preempt bool `json:"preempt,omitempty"`
	// UpperPenalty scales the upper-layer crossing cost of the sched
	// slowdown model. A pointer so that an explicit 0 ("upper-layer
	// crossings are free") is distinguishable from an omitted field
	// (default 1): with a plain float64 the two marshal identically and
	// the off setting would be silently coerced to the default.
	UpperPenalty *float64 `json:"upper_penalty,omitempty"`
}

// Canon is the canonical form of a request: every meaningful field
// explicit, every inert field zero. Its JSON marshalling (field order
// below == sorted key order) is the preimage of the content address, and
// by the determinism contract equal Canon ⇒ bit-identical result.
type Canon struct {
	Bytes        int64     `json:"bytes"`
	CkptsH       []float64 `json:"ckpts_h,omitempty"`
	Credit       bool      `json:"credit"`
	Elastic      bool      `json:"elastic"`
	FailBoards   int       `json:"fail_boards"`
	FailLinks    float64   `json:"fail_links"`
	FailSeed     int64     `json:"fail_seed"`
	HorizonH     float64   `json:"horizon_h"`
	Interference bool      `json:"interference"`
	Jobs         int       `json:"jobs"`
	Kind         string    `json:"kind"`
	MTBFs        []float64 `json:"mtbfs,omitempty"`
	Perms        int       `json:"perms"`
	Policies     []string  `json:"policies,omitempty"`
	Preempt      bool      `json:"preempt"`
	Reserve      bool      `json:"reserve"`
	Seed         int64     `json:"seed"`
	Shifts       int       `json:"shifts"`
	Size         string    `json:"size"`
	Steps        int       `json:"steps"`
	Topo         string    `json:"topo"`
	Trials       int       `json:"trials"`
	UpperPenalty float64   `json:"upper_penalty"`
}

// CanonicalJSON is the canonical byte form: one JSON object, keys in
// sorted order, inert fields zeroed, defaults explicit.
func (c *Canon) CanonicalJSON() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("serve: canonical marshal: %v", err)) // fixed struct, cannot fail
	}
	return b
}

// Key is the content address: the hex SHA-256 of the canonical JSON
// (journal.KeyOf, the address the checkpoint layers share).
func (c *Canon) Key() string { return journal.KeyOf(c) }

// DefaultBytes is the per-flow transfer size filled in for packet-level
// kinds when the request leaves Bytes at zero.
const DefaultBytes = 256 << 10

// schedTopos are the topologies with a board allocator (the sched kind's
// prerequisite).
var schedTopos = map[string]bool{"hx2mesh": true, "hx4mesh": true, "hyperx": true}

// Canonicalize validates a request and normalizes it into its canonical
// form: defaults filled, inert options stripped. Two semantically equal
// requests — reordered JSON keys, explicit-vs-default values, zero-valued
// inert options — canonicalize identically and therefore share a content
// address; any meaningful difference changes it.
func Canonicalize(r Request) (*Canon, error) {
	c := &Canon{Kind: r.Kind, Topo: r.Topo, Size: r.Size}
	switch r.Kind {
	case KindAlltoallFlow, KindAlltoallPacket, KindPermutation, KindAllreduce, KindResilience, KindSched:
	case "":
		return nil, fmt.Errorf("serve: missing kind (choose from %v)", Kinds())
	default:
		return nil, fmt.Errorf("serve: unknown kind %q (choose from %v)", r.Kind, Kinds())
	}
	if c.Topo == "" {
		c.Topo = "hx2mesh"
	}
	validTopo := false
	for _, n := range core.TopologyNames() {
		if n == c.Topo {
			validTopo = true
		}
	}
	if !validTopo {
		return nil, fmt.Errorf("serve: unknown topo %q (choose from %v)", c.Topo, core.TopologyNames())
	}
	if c.Size == "" {
		c.Size = string(core.Tiny)
	}
	switch core.ClusterSize(c.Size) {
	case core.Tiny, core.Small, core.Large:
	default:
		return nil, fmt.Errorf("serve: unknown size %q (tiny|small|large)", c.Size)
	}
	for name, v := range map[string]float64{
		"bytes": float64(r.Bytes), "shifts": float64(r.Shifts), "perms": float64(r.Perms),
		"fail_links": r.FailLinks, "fail_boards": float64(r.FailBoards),
		"trials": float64(r.Trials), "steps": float64(r.Steps),
		"jobs": float64(r.Jobs), "horizon_h": r.HorizonH,
	} {
		if v < 0 {
			return nil, fmt.Errorf("serve: negative %s", name)
		}
	}
	if r.FailLinks >= 1 {
		return nil, fmt.Errorf("serve: fail_links %v must be < 1", r.FailLinks)
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	failSeed := r.FailSeed
	if failSeed == 0 {
		failSeed = 1
	}

	// Faults compose with every network-level kind; the sampler seed is
	// inert while nothing is injected.
	faulted := r.FailLinks > 0 || r.FailBoards > 0
	setFaults := func() error {
		if r.FailBoards > 0 && !schedTopos[c.Topo] {
			return fmt.Errorf("serve: fail_boards needs an HxMesh-family topo, got %q", c.Topo)
		}
		c.FailLinks = r.FailLinks
		c.FailBoards = r.FailBoards
		if faulted {
			c.FailSeed = failSeed
		}
		return nil
	}

	switch r.Kind {
	case KindAlltoallFlow:
		c.Seed = seed
		c.Shifts = defInt(r.Shifts, 8)
		if err := setFaults(); err != nil {
			return nil, err
		}
	case KindAlltoallPacket:
		c.Seed = seed
		c.Shifts = defInt(r.Shifts, 8)
		c.Bytes = defInt64(r.Bytes, DefaultBytes)
		c.Credit = r.Credit
		if err := setFaults(); err != nil {
			return nil, err
		}
	case KindPermutation:
		c.Seed = seed
		c.Perms = defInt(r.Perms, 1)
		c.Bytes = defInt64(r.Bytes, DefaultBytes)
		c.Credit = r.Credit
		if err := setFaults(); err != nil {
			return nil, err
		}
	case KindAllreduce:
		// The ring-allreduce measurement draws nothing from the seed —
		// it is inert and stripped.
		c.Bytes = defInt64(r.Bytes, DefaultBytes)
		if err := setFaults(); err != nil {
			return nil, err
		}
	case KindResilience:
		c.Seed = seed
		c.FailSeed = failSeed
		c.Shifts = defInt(r.Shifts, 4)
		c.Bytes = defInt64(r.Bytes, DefaultBytes)
		c.Credit = r.Credit
		c.Trials = defInt(r.Trials, 3)
		c.Steps = defInt(r.Steps, runner.DefaultResilienceSteps)
		c.FailLinks = r.FailLinks
		if c.FailLinks == 0 {
			c.FailLinks = runner.DefaultResilienceMaxFrac // the sweep's upper bound, as in hxsim
		}
		c.FailBoards = r.FailBoards
		if c.FailBoards > 0 && !schedTopos[c.Topo] {
			return nil, fmt.Errorf("serve: fail_boards needs an HxMesh-family topo, got %q", c.Topo)
		}
	case KindSched:
		if !schedTopos[c.Topo] {
			return nil, fmt.Errorf("serve: sched needs a board-allocator topo (hx2mesh|hx4mesh|hyperx), got %q", c.Topo)
		}
		c.Seed = seed
		c.Jobs = defInt(r.Jobs, 120)
		c.HorizonH = r.HorizonH
		if c.HorizonH == 0 {
			c.HorizonH = 40
		}
		c.Trials = defInt(r.Trials, 2)
		c.Reserve = r.Reserve
		c.MTBFs = append([]float64(nil), r.MTBFs...)
		if len(c.MTBFs) == 0 {
			c.MTBFs = []float64{0, 40}
		}
		for _, m := range c.MTBFs {
			if m < 0 {
				return nil, fmt.Errorf("serve: negative MTBF %v", m)
			}
		}
		c.CkptsH = append([]float64(nil), r.CkptsH...)
		if len(c.CkptsH) == 0 {
			c.CkptsH = []float64{2}
		}
		for _, k := range c.CkptsH {
			if k < 0 {
				return nil, fmt.Errorf("serve: negative checkpoint interval %v", k)
			}
		}
		c.Policies = append([]string(nil), r.Policies...)
		if len(c.Policies) == 0 {
			c.Policies = []string{string(sched.FirstFit)}
		}
		for _, p := range c.Policies {
			if _, err := sched.ParsePolicy(p); err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
		}
		c.Interference = r.Interference
		c.Elastic = r.Elastic
		c.Preempt = r.Preempt
		// Omitted means the model default; an explicit 0 is the meaningful
		// "upper-layer crossings are free" setting and must survive
		// canonicalization as 0, not be coerced back to 1.
		c.UpperPenalty = 1
		if r.UpperPenalty != nil {
			if *r.UpperPenalty < 0 {
				return nil, fmt.Errorf("serve: negative upper_penalty %v", *r.UpperPenalty)
			}
			c.UpperPenalty = *r.UpperPenalty
		}
	}
	return c, nil
}

func defInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func defInt64(v, def int64) int64 {
	if v == 0 {
		return def
	}
	return v
}
