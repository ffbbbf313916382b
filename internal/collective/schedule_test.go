package collective

import (
	"math"
	"testing"
	"testing/quick"

	"hammingmesh/internal/netsim"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

func TestAllreduceAsymptoticBandwidths(t *testing.T) {
	pr := DefaultParams()
	p := 1024
	huge := 1e12 // bytes, to reach the asymptote
	// Two rings reach the optimum: NICs/(2β) = 100 GB/s.
	bw := AllreduceBandwidth(huge, TwoRingsAllreduceTime(p, huge, pr))
	if math.Abs(bw-OptimalAllreduceBandwidth(pr)) > 1 {
		t.Errorf("two-rings asymptotic bw = %.1f, want ≈%.1f", bw, OptimalAllreduceBandwidth(pr))
	}
	// Unidirectional ring on one NIC reaches 1/(2β) = 25 GB/s.
	bw = AllreduceBandwidth(huge, RingAllreduceTime(p, huge, pr))
	if math.Abs(bw-25) > 0.5 {
		t.Errorf("ring asymptotic bw = %.1f, want 25", bw)
	}
	// Bidirectional ring doubles it.
	bw = AllreduceBandwidth(huge, BidirRingAllreduceTime(p, huge, pr))
	if math.Abs(bw-50) > 0.5 {
		t.Errorf("bidir ring asymptotic bw = %.1f, want 50", bw)
	}
}

func TestTorusAlgorithmWinsAtSmallSizes(t *testing.T) {
	// Fig. 13: the torus algorithm achieves higher throughput at smaller
	// message sizes (latency √p vs p); rings win for large messages.
	pr := DefaultParams()
	p := 4096
	small := float64(64 << 10)
	large := 1.0e9
	tSmallTorus := Torus2DAllreduceTime(p, small, pr)
	tSmallRings := TwoRingsAllreduceTime(p, small, pr)
	if tSmallTorus >= tSmallRings {
		t.Errorf("small msg: torus %.0f ns not faster than rings %.0f ns", tSmallTorus, tSmallRings)
	}
	tLargeTorus := Torus2DAllreduceTime(p, large, pr)
	tLargeRings := TwoRingsAllreduceTime(p, large, pr)
	if tLargeRings >= tLargeTorus {
		t.Errorf("large msg: rings %.0f ns not faster than torus %.0f ns", tLargeRings, tLargeTorus)
	}
}

func TestBestAllreduceSelection(t *testing.T) {
	pr := DefaultParams()
	p := 4096
	if a, _ := BestAllreduce(p, 1<<10, pr); a != AlgoTree {
		t.Errorf("1 KiB best = %v, want tree", a)
	}
	if a, _ := BestAllreduce(p, 1<<30, pr); a != AlgoTwoRings {
		t.Errorf("1 GiB best = %v, want two rings", a)
	}
}

func TestAllreduceTimeMonotonicInSize(t *testing.T) {
	pr := DefaultParams()
	f := func(p8 uint8, s uint32) bool {
		p := int(p8)%1000 + 4
		b := float64(s%(1<<20)) + 1
		for _, a := range []AllreduceAlgorithm{AlgoRing, AlgoBidirRing, AlgoTwoRings, AlgoTorus2D, AlgoTree} {
			if AllreduceTime(a, p, 2*b, pr) < AllreduceTime(a, p, b, pr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAlltoallBandwidthSaturates(t *testing.T) {
	pr := DefaultParams()
	share := 0.25
	bwSmall := AlltoallBandwidth(1024, 1<<10, share, pr)
	bwLarge := AlltoallBandwidth(1024, 16<<20, share, pr)
	sat := float64(pr.NICs) / pr.BetaNSPerByte * share // 50 GB/s for Hx2
	if bwLarge < 0.9*sat || bwLarge > sat {
		t.Errorf("large-message alltoall bw = %.1f, want ≈%.1f", bwLarge, sat)
	}
	if bwSmall >= bwLarge {
		t.Errorf("alltoall bw not increasing with message size: %.1f ≥ %.1f", bwSmall, bwLarge)
	}
}

func TestTwoRingsOnHxMeshMapping(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	r1, r2, err := TwoRingsOnHxMesh(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != h.NumEndpoints() || len(r2) != h.NumEndpoints() {
		t.Fatalf("ring lengths %d/%d, want %d", len(r1), len(r2), h.NumEndpoints())
	}
	// Every consecutive pair must be within 3 links (accel-switch-accel at
	// most, or 1 on-board link).
	tab := routing.NewTableNet(h.Network)
	dist := func(a, b topo.NodeID) int { return tab.PathLen(a, b) }
	if got := RingLinkStress(dist, r1); got > 3 {
		t.Errorf("ring1 max edge distance = %d, want ≤3", got)
	}
	if got := RingLinkStress(dist, r2); got > 3 {
		t.Errorf("ring2 max edge distance = %d, want ≤3", got)
	}
}

func TestMeasuredAllreduceShareHxMesh(t *testing.T) {
	// Table II reports allreduce at ≈98% of optimum for the small
	// Hx2Mesh; our small instance should comfortably exceed 80%.
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	r1, r2, err := TwoRingsOnHxMesh(h)
	if err != nil {
		t.Fatal(err)
	}
	share, err := MeasureAllreduceShare(simcore.Of(h.Network), nil, [][]topo.NodeID{r1, r2}, 256<<10, netsim.DefaultConfig(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.8 || share > 1.01 {
		t.Errorf("allreduce share = %.3f, want ≈0.98", share)
	}
}

func TestMeasuredAllreduceShareTorus(t *testing.T) {
	n := topo.NewTorus2D(8, 8, 2, 2, topo.DefaultLinkParams())
	r1, r2, err := TwoRingsOnTorus(n, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	share, err := MeasureAllreduceShare(simcore.Of(n), nil, [][]topo.NodeID{r1, r2}, 256<<10, netsim.DefaultConfig(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.8 || share > 1.01 {
		t.Errorf("torus allreduce share = %.3f, want ≈0.98 (rings on disjoint cycles)", share)
	}
}

// TestSimulatedMatchesScheduleModel checks the two-ring α-β model against
// the packet engine at medium size. Every round of the pipelined two-ring
// allreduce sends the same flows, one S/(4p)-byte segment each way between
// neighbours on both rings, so the round-by-round packet time is 2(p−1)
// times the makespan of one run of those flows.
func TestSimulatedMatchesScheduleModel(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	r1, r2, err := TwoRingsOnHxMesh(h)
	if err != nil {
		t.Fatal(err)
	}
	p, total := len(r1), int64(4<<20)
	seg := total / int64(4*p)
	flows := append(netsim.RingNeighborFlows(r1, seg, true), netsim.RingNeighborFlows(r2, seg, true)...)
	res, err := netsim.New(simcore.Of(h.Network), nil, netsim.DefaultConfig()).Run(flows)
	if err != nil || res.Deadlocked {
		t.Fatalf("round run: err %v, deadlocked %v", err, res.Deadlocked)
	}
	sim := float64(2*(p-1)) * res.Makespan
	pr := DefaultParams()
	pr.AlphaNS = 400 // tiny cluster: short paths
	model := TwoRingsAllreduceTime(p, float64(total), pr)
	if ratio := sim / model; ratio < 0.5 || ratio > 2.0 {
		t.Errorf("simulated %.0f ns vs model %.0f ns (ratio %.2f) disagree >2x", sim, model, ratio)
	}
	t.Logf("simulated %.0f ns, model %.0f ns", sim, model)
}
