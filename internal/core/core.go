// Package core is the public façade of the HammingMesh reproduction: it
// ties together topology construction, compilation to the flat-array
// simulator representation (internal/simcore), routing, cost accounting,
// job allocation, and the packet- and flow-level bandwidth evaluations
// behind a single Cluster type. Examples and command-line tools build on
// this package; specialized studies can reach into the internal packages
// directly. A Cluster's compiled network and routing table are immutable
// and concurrency-safe, so one Cluster can back many parallel experiments
// (see internal/runner).
package core

import (
	"fmt"
	"math/rand"
	"unsafe"

	"hammingmesh/internal/alloc"
	"hammingmesh/internal/analysis"
	"hammingmesh/internal/collective"
	"hammingmesh/internal/cost"
	"hammingmesh/internal/faults"
	"hammingmesh/internal/flowsim"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// Cluster is one built network with its derived services.
type Cluster struct {
	Net   *topo.Network
	Comp  *simcore.Compiled
	Hx    *topo.HxMesh // non-nil for HxMesh/HyperX families
	Table *routing.Table
	Grid  *alloc.Grid // board allocator, non-nil for HxMesh families
	LP    topo.LinkParams

	// Faults is the fault set this cluster view routes around (nil for the
	// pristine cluster; set by WithFaults).
	Faults *faults.FaultSet
}

// newCluster compiles the network and wires the shared services. It uses
// simcore.Compile rather than the interning simcore.Of cache so that
// throwaway clusters (benchmark loops, sweeps over many configurations)
// can be garbage collected; sharing happens at the Cluster level (see
// runner.Pool).
func newCluster(n *topo.Network, hx *topo.HxMesh, grid *alloc.Grid, lp topo.LinkParams) *Cluster {
	comp := simcore.Compile(n)
	return &Cluster{
		Net: n, Comp: comp, Hx: hx,
		Table: routing.NewTable(comp),
		Grid:  grid,
		LP:    lp,
	}
}

// NewHxMesh builds an a×b-board x×y HammingMesh cluster.
func NewHxMesh(a, b, x, y int) *Cluster {
	lp := topo.DefaultLinkParams()
	h := topo.NewHxMesh(a, b, x, y, lp)
	return newCluster(h.Network, h, alloc.NewGrid(x, y), lp)
}

// NewHyperX builds a 2D HyperX (Hx1Mesh) cluster.
func NewHyperX(x, y int) *Cluster {
	lp := topo.DefaultLinkParams()
	h := topo.NewHyperX2D(x, y, lp)
	return newCluster(h.Network, h, alloc.NewGrid(x, y), lp)
}

// NewFatTree builds a fat-tree cluster with the given taper (0, 0.5, 0.75).
func NewFatTree(endpoints int, taper float64) *Cluster {
	lp := topo.DefaultLinkParams()
	n := topo.NewFatTree(endpoints, topo.TaperedTree(taper), lp)
	n.Meta.Taper = taper // as an HxMesh records its dimension trees' taper
	return newCluster(n, nil, nil, lp)
}

// NewTorus builds a 2D torus cluster of w×h accelerators on 2×2 boards.
func NewTorus(w, h int) *Cluster {
	lp := topo.DefaultLinkParams()
	n := topo.NewTorus2D(w, h, 2, 2, lp)
	return newCluster(n, nil, nil, lp)
}

// NewDragonfly builds a Dragonfly cluster.
func NewDragonfly(cfg topo.DragonflyConfig) *Cluster {
	cfg.LP = topo.DefaultLinkParams()
	n := topo.NewDragonfly(cfg)
	return newCluster(n, nil, nil, cfg.LP)
}

// WithFaults returns a degraded view of the cluster: same network and
// compiled form (both immutable), but a routing table that computes routes
// over the fault set's port-mask overlay, and — when the cluster has a
// board allocator — a fresh allocation grid with the failed boards marked
// so job placement skips them (§IV-A failure handling). The pristine
// cluster is returned unchanged for a nil or empty fault set, preserving
// golden outputs bit-for-bit. Measurements on the returned cluster
// (AllreduceShare, PermutationGBpsCfg and the runner's sweeps) route
// around the failures; flows whose destination was cut off surface a typed
// *routing.ErrUnreachable.
func (c *Cluster) WithFaults(fs *faults.FaultSet) *Cluster {
	if fs == nil || fs.Zero() {
		return c
	}
	out := *c
	out.Faults = fs
	out.Table = routing.NewTableMask(c.Comp, fs.Mask())
	if c.Grid != nil {
		g := alloc.NewGrid(c.Grid.X, c.Grid.Y)
		for _, b := range fs.FailedBoards() {
			g.Fail(b[0], b[1])
		}
		out.Grid = g
	}
	return &out
}

// SampleFaults builds a seeded fault scenario: `boards` whole boards
// powered off first (HxMesh-family clusters only), then a
// connectivity-preserving fraction of cable failures on top (the cmd
// tools' -fail-links/-fail-boards/-fail-seed flags). Both samples are
// nested in their size for a fixed seed (see
// faults.Builder.AcceptedConnectedLinks).
func (c *Cluster) SampleFaults(linkFrac float64, boards int, seed int64) (*faults.FaultSet, error) {
	if boards > 0 && c.Hx == nil {
		return nil, fmt.Errorf("core: board faults need an HxMesh-family cluster, got %s", c.Net.Meta.Family)
	}
	b := faults.NewBuilder(c.Comp)
	if boards > 0 {
		b.SampleFailedBoards(c.Hx, boards, seed)
	}
	if linkFrac > 0 {
		b.AcceptedConnectedLinks(linkFrac, seed)
	}
	return b.Build(), nil
}

// MemoryBytes estimates the resident size of the cluster's shared
// immutable state, each array from its length and element size: the topo
// graph, the compiled network's flat arrays (the endpoint list both hold
// is counted once) and the routing table's lazily built caches. The table
// part grows as experiments warm it, so the estimate should be re-read,
// not snapshot — runner.Pool budgets its cluster cache against this
// value. The HxMesh coordinate index and the board grid, a few bytes per
// endpoint and per board, are left out.
func (c *Cluster) MemoryBytes() int64 {
	n, p := c.Net, c.Comp
	// Every topo port compiles to exactly one simcore port.
	graph := sliceBytes(n.Nodes) + sliceBytes(n.Endpoints) +
		int64(len(p.Ports))*int64(unsafe.Sizeof(topo.Port{}))
	comp := sliceBytes(p.PortOff) + sliceBytes(p.Ports) + sliceBytes(p.Owner) +
		sliceBytes(p.Kind) + sliceBytes(p.RankOf) + sliceBytes(p.Switches) +
		sliceBytes(p.GroupOf) + sliceBytes(p.GroupOff) + sliceBytes(p.GroupPorts)
	return graph + comp + c.Table.MemoryBytes()
}

// sliceBytes is the size of s's elements.
func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(len(s)) * int64(unsafe.Sizeof(zero))
}

// Inventory returns the graph-derived equipment inventory.
func (c *Cluster) Inventory() cost.Inventory { return cost.FromNetwork(c.Net) }

// CostMUSD is the capital cost in millions of USD at paper prices.
func (c *Cluster) CostMUSD() float64 { return c.Inventory().CostMUSD(cost.PaperPrices()) }

// Diameter is the cable-counting diameter computed on the built graph.
func (c *Cluster) Diameter() int { return topo.EndpointDiameter(c.Net, 64) }

// SimInjectionGBps is the injection bandwidth of the *simulated* graph:
// one port per endpoint for the switched single-plane builds, four for the
// direct topologies. Shares measured by the simulators normalize against
// this value.
func (c *Cluster) SimInjectionGBps() float64 {
	if c.Net.Meta.Family == "fattree" || c.Net.Meta.Family == "dragonfly" {
		return c.LP.GBps // one port per endpoint in the built plane
	}
	return 4 * c.LP.GBps
}

// FlowConfig returns the cluster's default flow-solver configuration: the
// per-family path-sampling policy under the given seed, from which the
// runner's pooled AlltoallFlowShare starts.
func (c *Cluster) FlowConfig(seed uint64) flowsim.Config {
	cfg := flowsim.Config{Seed: seed}
	switch c.Net.Meta.Family {
	case "dragonfly":
		// Minimal routing collapses under shifted traffic on Dragonfly
		// (all group-pair demand on few direct links); the paper runs
		// UGAL-L there, which the solver approximates with Valiant
		// subflows through random intermediate routers.
		cfg.ValiantPaths = 8
	}
	return cfg
}

// AliveEndpoints returns the endpoints participating in measurements: all
// of them on the pristine cluster, the fault set's survivors on a degraded
// view.
func (c *Cluster) AliveEndpoints() []topo.NodeID {
	if c.Faults != nil {
		return c.Faults.SurvivingEndpoints()
	}
	return c.Comp.Endpoints
}

// AllreduceShare measures the large-message ring-allreduce bandwidth as a
// share of the optimum (half injection), embedding two edge-disjoint
// Hamiltonian rings where the topology supports them and a single
// endpoint-order ring otherwise.
func (c *Cluster) AllreduceShare(bytesPerFlow int64) (float64, error) {
	rings, err := c.AllreduceRings()
	if err != nil {
		return 0, err
	}
	cfg := netsim.DefaultConfig()
	share, err := collective.MeasureAllreduceShare(c.Comp, c.Table, rings, bytesPerFlow, cfg, c.SimInjectionGBps())
	if err != nil {
		return 0, err
	}
	return share, nil
}

// AllreduceRings returns the ring embedding used by AllreduceShare: two
// edge-disjoint Hamiltonian rings on HxMesh/torus, the endpoint-order ring
// elsewhere. On a degraded view, dead accelerators are spliced out of each
// ring: the survivors stay in ring order and the packet simulator routes
// the now-longer neighbor hops around the failures (the rings may lose
// edge-disjointness over the degraded fabric — that bandwidth loss is the
// measurement).
func (c *Cluster) AllreduceRings() ([][]topo.NodeID, error) {
	rings, err := c.allreduceRingsPristine()
	if err != nil {
		return nil, err
	}
	if c.Faults == nil {
		return rings, nil
	}
	for i, ring := range rings {
		alive := make([]topo.NodeID, 0, len(ring))
		for _, id := range ring {
			if !c.Faults.NodeDown(id) {
				alive = append(alive, id)
			}
		}
		if len(alive) < 2 {
			return nil, fmt.Errorf("core: ring %d has %d surviving endpoints, need ≥2", i, len(alive))
		}
		rings[i] = alive
	}
	return rings, nil
}

func (c *Cluster) allreduceRingsPristine() ([][]topo.NodeID, error) {
	switch {
	case c.Hx != nil:
		r1, r2, err := collective.TwoRingsOnHxMesh(c.Hx)
		if err != nil {
			return nil, err
		}
		return [][]topo.NodeID{r1, r2}, nil
	case c.Net.Meta.Family == "torus":
		w := c.Net.Meta.GlobalX * c.Net.Meta.BoardA
		h := c.Net.Meta.GlobalY * c.Net.Meta.BoardB
		r1, r2, err := collective.TwoRingsOnTorus(c.Net, w, h)
		if err != nil {
			return nil, err
		}
		return [][]topo.NodeID{r1, r2}, nil
	default:
		return [][]topo.NodeID{collective.EndpointOrderRing(c.Net)}, nil
	}
}

// PermutationGBpsCfg runs one random permutation, drawn from rng, through
// the packet simulator under cfg and returns per-endpoint receive
// bandwidths: it defines the Fig. 12 metric (per-flow bytes over the
// flow's own completion time), and runner.Pool.PermutationSweepGBps runs
// it once per sampled permutation.
func (c *Cluster) PermutationGBpsCfg(cfg netsim.Config, bytes int64, rng *rand.Rand) ([]float64, error) {
	flows := netsim.PermutationFlows(c.AliveEndpoints(), bytes, rng)
	res, err := netsim.New(c.Comp, c.Table, cfg).Run(flows)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(flows))
	for i, f := range flows {
		out = append(out, float64(f.Bytes)/res.FlowFinish[i])
	}
	return out, nil
}

// AllocateJob places a u×v-board job with the full heuristic stack.
func (c *Cluster) AllocateJob(id int32, u, v int) (*alloc.Placement, bool) {
	if c.Grid == nil {
		return nil, false
	}
	return c.Grid.Allocate(id, u, v, alloc.DefaultOptions())
}

// Summary prints the closed-form Table II style row for HxMesh clusters.
func (c *Cluster) Summary() (analysis.Summary, error) {
	if c.Hx == nil {
		return analysis.Summary{}, fmt.Errorf("core: summary only available for HxMesh clusters")
	}
	return analysis.HxMeshSummary(c.Hx), nil
}
