package faults

import (
	"errors"
	"math"
	"testing"

	"hammingmesh/internal/netsim"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// A zero fault set must leave the simulation bit-identical to the pristine
// golden outputs pinned in internal/netsim/golden_test.go: same topology,
// same flows, same makespan/byte/event counts.
func TestZeroFaultSetReproducesGolden(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 2, 2, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	fs := NewBuilder(c).Build()
	if !fs.Zero() {
		t.Fatal("empty builder produced a non-zero fault set")
	}
	if fs.Mask() != nil {
		t.Fatal("zero fault set must expose a nil mask")
	}
	if got := len(fs.SurvivingEndpoints()); got != c.NumEndpoints() {
		t.Fatalf("zero fault set has %d survivors, want %d", got, c.NumEndpoints())
	}
	tab := routing.NewTableMask(c, fs.Mask())
	res, err := netsim.New(c, tab, netsim.DefaultConfig()).Run(
		netsim.ShiftFlows(h.Endpoints, 3, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Makespan, 1838.3999999999999) {
		t.Errorf("makespan = %v, want 1838.4", res.Makespan)
	}
	if res.TotalBytes != 1048576 || res.Events != 704 {
		t.Errorf("totalBytes=%d events=%d, want 1048576/704", res.TotalBytes, res.Events)
	}
}

// Property: for random seeded fault sets below the disconnection threshold
// (the connectivity-preserving sampler), every surviving endpoint pair
// stays mutually reachable on the masked fabric, and the failed sets are
// nested across fractions under one seed.
func TestPropertyConnectedSamplerKeepsPairsReachable(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	fracs := []float64{0.02, 0.05, 0.10, 0.20}
	for seed := int64(1); seed <= 12; seed++ {
		var prev simcore.PortMask
		for _, frac := range fracs {
			fs := SampleLinksConnected(c, frac, seed)
			mask := fs.Mask()
			tab := routing.NewTableMask(c, mask)
			for _, dst := range c.Endpoints {
				d := tab.Dist(dst)
				for _, src := range c.Endpoints {
					if d[src] < 0 {
						t.Fatalf("seed %d frac %.2f: endpoint %d unreachable from %d (%v)",
							seed, frac, dst, src, fs)
					}
				}
			}
			// Nesting: every port masked at the lower fraction stays masked.
			if prev != nil {
				for pid := int32(0); pid < int32(c.NumPorts()); pid++ {
					if prev.Get(pid) && !mask.Get(pid) {
						t.Fatalf("seed %d: fault sets not nested at frac %.2f (port %d)", seed, frac, pid)
					}
				}
			}
			prev = mask
			// Determinism: resampling with the same inputs is identical.
			again := SampleLinksConnected(c, frac, seed).Mask()
			for i := range mask {
				if mask[i] != again[i] {
					t.Fatalf("seed %d frac %.2f: sampler not deterministic", seed, frac)
				}
			}
		}
	}
}

func TestFailSwitchMasksAllitsPorts(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 2, 2, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	sw := c.Switches[0]
	fs := NewBuilder(c).FailNode(sw).Build()
	if fs.FailedSwitches() != 1 {
		t.Fatalf("failed switches = %d, want 1", fs.FailedSwitches())
	}
	off, end := c.PortRange(int32(sw))
	for pid := off; pid < end; pid++ {
		if !fs.Mask().Get(pid) || !fs.Mask().Get(c.Ports[pid].Rev) {
			t.Fatalf("port %d of failed switch %d not fully masked", pid, sw)
		}
	}
	// Routing must avoid the dead switch entirely while endpoints stay
	// mutually reachable (HxMesh routes around a dead row/column switch).
	tab := routing.NewTableMask(c, fs.Mask())
	for _, dst := range c.Endpoints {
		d := tab.Dist(dst)
		for _, src := range c.Endpoints {
			if src != dst && d[src] < 0 {
				t.Fatalf("endpoint %d unreachable from %d after one switch failure", dst, src)
			}
		}
		for _, src := range c.Endpoints {
			if src == dst {
				continue
			}
			for _, pid := range tab.AppendCandidates(nil, int32(src), dst) {
				if c.Ports[pid].To == int32(sw) {
					t.Fatalf("candidate port %d routes into dead switch %d", pid, sw)
				}
			}
		}
	}
}

func TestFailBoardKillsItsEndpoints(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	fs := NewBuilder(c).FailBoard(h, 1, 2).Build()
	if got := len(fs.FailedBoards()); got != 1 {
		t.Fatalf("failed boards = %d, want 1", got)
	}
	dead := h.BoardAccels(1, 2)
	if got, want := len(fs.SurvivingEndpoints()), c.NumEndpoints()-len(dead); got != want {
		t.Fatalf("survivors = %d, want %d", got, want)
	}
	for _, id := range dead {
		if !fs.NodeDown(id) {
			t.Fatalf("board endpoint %d not marked down", id)
		}
	}
	// A flow to a dead endpoint is a typed unreachable error.
	tab := routing.NewTableMask(c, fs.Mask())
	alive := fs.SurvivingEndpoints()[0]
	_, err := netsim.New(c, tab, netsim.DefaultConfig()).Run(
		[]netsim.Flow{{Src: alive, Dst: dead[0], Bytes: 8192}})
	var unreach *routing.ErrUnreachable
	if !errors.As(err, &unreach) {
		t.Fatalf("flow to dead endpoint: err = %v, want *routing.ErrUnreachable", err)
	}
	// The surviving endpoints still run a full alltoall shift.
	res, err := netsim.New(c, tab, netsim.DefaultConfig()).Run(
		netsim.ShiftFlows(alivePairs(fs), 1, 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != int64(len(fs.SurvivingEndpoints()))*16<<10 {
		t.Fatalf("survivor alltoall delivered %d bytes", res.TotalBytes)
	}
}

func alivePairs(fs *FaultSet) []topo.NodeID { return fs.SurvivingEndpoints() }

// FailBoardRegion is the rack/row outage of the scheduler's burst model: a
// contiguous board block goes down at once, clipped at the mesh edges.
func TestFailBoardRegionClipsAndKills(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)

	// A 2x2 region fully inside the mesh: 4 boards, 16 dead accelerators.
	fs := NewBuilder(c).FailBoardRegion(h, 1, 1, 2, 2).Build()
	if got := len(fs.FailedBoards()); got != 4 {
		t.Fatalf("interior 2x2 region failed %d boards, want 4", got)
	}
	perBoard := len(h.BoardAccels(0, 0))
	if got, want := len(fs.SurvivingEndpoints()), c.NumEndpoints()-4*perBoard; got != want {
		t.Fatalf("survivors = %d, want %d", got, want)
	}

	// The same region anchored at the corner (3, 3) clips to one board.
	fs = NewBuilder(c).FailBoardRegion(h, 3, 3, 2, 2).Build()
	if got := len(fs.FailedBoards()); got != 1 {
		t.Fatalf("corner 2x2 region failed %d boards, want 1 (clipped)", got)
	}

	// A full-width one-row region (a row outage) kills exactly one board
	// row.
	fs = NewBuilder(c).FailBoardRegion(h, 0, 2, h.Cfg.X, 1).Build()
	if got := len(fs.FailedBoards()); got != h.Cfg.X {
		t.Fatalf("row outage failed %d boards, want %d", got, h.Cfg.X)
	}
	for bx := 0; bx < h.Cfg.X; bx++ {
		for _, id := range h.BoardAccels(bx, 2) {
			if !fs.NodeDown(id) {
				t.Fatalf("row-outage endpoint %d on board (%d,2) not down", id, bx)
			}
		}
	}
}

func TestSampleLinksNestedAndCounted(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	lo, hi := SampleLinksConnected(c, 0.05, 9), SampleLinksConnected(c, 0.15, 9)
	if lo.FailedLinks() != LinkCount(c, 0.05) || hi.FailedLinks() != LinkCount(c, 0.15) {
		t.Fatalf("failed link counts %d/%d, want %d/%d",
			lo.FailedLinks(), hi.FailedLinks(), LinkCount(c, 0.05), LinkCount(c, 0.15))
	}
	for pid := int32(0); pid < int32(c.NumPorts()); pid++ {
		if lo.Mask().Get(pid) && !hi.Mask().Get(pid) {
			t.Fatalf("connected sampler not nested at port %d", pid)
		}
	}
}
