package netsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

func lp() topo.LinkParams { return topo.DefaultLinkParams() }

func TestSingleFlowFatTree(t *testing.T) {
	// One 1 MiB flow through a nonblocking fat tree must achieve close to
	// the 50 GB/s link rate (store-and-forward pipelining across 4 hops).
	n := topo.NewFatTree(64, topo.NonblockingTree(), lp())
	sim := NewNet(n, nil, DefaultConfig())
	bytes := int64(1 << 20)
	res, err := sim.Run([]Flow{{Src: n.Endpoints[0], Dst: n.Endpoints[63], Bytes: bytes}})
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(bytes) / 50.0
	if res.Makespan < ideal {
		t.Fatalf("makespan %.0f ns faster than line rate %.0f ns", res.Makespan, ideal)
	}
	if res.Makespan > ideal*1.2 {
		t.Errorf("makespan %.0f ns, want within 20%% of %.0f ns", res.Makespan, ideal)
	}
	if res.TotalBytes != bytes {
		t.Errorf("delivered %d bytes, want %d", res.TotalBytes, bytes)
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	// Two flows into the same destination must halve per-flow bandwidth on
	// the last link.
	n := topo.NewFatTree(64, topo.NonblockingTree(), lp())
	sim := NewNet(n, nil, DefaultConfig())
	bytes := int64(1 << 20)
	res, err := sim.Run([]Flow{
		{Src: n.Endpoints[0], Dst: n.Endpoints[5], Bytes: bytes},
		{Src: n.Endpoints[1], Dst: n.Endpoints[5], Bytes: bytes},
	})
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(2*bytes) / 50.0
	if res.Makespan < ideal || res.Makespan > ideal*1.2 {
		t.Errorf("makespan %.0f ns, want ≈%.0f ns (shared 50 GB/s link)", res.Makespan, ideal)
	}
}

func TestZeroByteFlowAndValidation(t *testing.T) {
	n := topo.NewFatTree(8, topo.NonblockingTree(), lp())
	sim := NewNet(n, nil, DefaultConfig())
	res, err := sim.Run([]Flow{{Src: n.Endpoints[0], Dst: n.Endpoints[1], Bytes: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 0 {
		t.Errorf("zero flow delivered %d bytes", res.TotalBytes)
	}
	if _, err := sim.Run([]Flow{{Src: n.Endpoints[0], Dst: n.Endpoints[0], Bytes: 1}}); err == nil {
		t.Error("self-flow not rejected")
	}
	// The zero Config has no packet size: refused up front, not run to
	// the MaxEvents cap.
	_, err = NewNet(n, nil, Config{}).Run([]Flow{{Src: n.Endpoints[0], Dst: n.Endpoints[1], Bytes: 1 << 20}})
	if err == nil || !strings.Contains(err.Error(), "packet size") {
		t.Errorf("zero Config: err = %v, want a packet-size error", err)
	}
}

func TestPermutationNonblockingFatTree(t *testing.T) {
	// Random permutation on a nonblocking fat tree with adaptive routing
	// should deliver most of the injection bandwidth per endpoint.
	n := topo.NewFatTree(128, topo.NonblockingTree(), lp())
	sim := NewNet(n, nil, DefaultConfig())
	rng := rand.New(rand.NewSource(42))
	flows := PermutationFlows(n.Endpoints, 256<<10, rng)
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	perEp := res.AggregateGBps() / float64(len(n.Endpoints))
	if perEp < 35 { // ≥70% of 50 GB/s
		t.Errorf("per-endpoint bandwidth %.1f GB/s, want ≥35", perEp)
	}
}

func TestRingNeighborTorusFullBandwidth(t *testing.T) {
	// Neighbor ring traffic mapped on a torus row uses dedicated links:
	// per-endpoint send bandwidth should be near the 50 GB/s link rate.
	n := topo.NewTorus2D(8, 8, 2, 2, lp())
	ring := make([]topo.NodeID, 8)
	for i := range ring {
		ring[i] = n.Endpoints[i] // first row, consecutive gx
	}
	sim := NewNet(n, nil, DefaultConfig())
	res, err := sim.Run(RingNeighborFlows(ring, 512<<10, false))
	if err != nil {
		t.Fatal(err)
	}
	perFlow := float64(512<<10) / res.Makespan
	if perFlow < 45 {
		t.Errorf("ring flow bandwidth %.1f GB/s, want ≥45 (dedicated links)", perFlow)
	}
}

func TestShiftFlowsProperties(t *testing.T) {
	n := topo.NewFatTree(16, topo.NonblockingTree(), lp())
	for _, shift := range []int{0, 1, 7, 15, 16, -1} {
		flows := ShiftFlows(n.Endpoints, shift, 100)
		if (shift%16+16)%16 == 0 {
			if len(flows) != 0 {
				t.Errorf("shift %d: got %d flows, want 0", shift, len(flows))
			}
			continue
		}
		if len(flows) != 16 {
			t.Fatalf("shift %d: got %d flows", shift, len(flows))
		}
		recv := map[topo.NodeID]int{}
		for _, f := range flows {
			if f.Src == f.Dst {
				t.Fatalf("shift %d produced self-flow", shift)
			}
			recv[f.Dst]++
		}
		for _, c := range recv {
			if c != 1 {
				t.Fatalf("shift %d: endpoint receives %d flows", shift, c)
			}
		}
	}
}

func TestPermutationFlowsNoFixedPoints(t *testing.T) {
	n := topo.NewFatTree(64, topo.NonblockingTree(), lp())
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		flows := PermutationFlows(n.Endpoints, 1, rng)
		if len(flows) != 64 {
			t.Fatalf("got %d flows", len(flows))
		}
		recv := map[topo.NodeID]int{}
		for _, f := range flows {
			if f.Src == f.Dst {
				t.Fatal("fixed point in permutation")
			}
			recv[f.Dst]++
		}
		for _, c := range recv {
			if c != 1 {
				t.Fatal("not a permutation")
			}
		}
	}
}

func TestCreditFCMatchesIdealUnderLightLoad(t *testing.T) {
	n := topo.NewHxMesh(2, 2, 4, 4, lp()).Network
	bytes := int64(128 << 10)
	flows := []Flow{
		{Src: n.Endpoints[0], Dst: n.Endpoints[60], Bytes: bytes},
		{Src: n.Endpoints[3], Dst: n.Endpoints[40], Bytes: bytes},
	}
	cfgI := DefaultConfig()
	cfgC := DefaultConfig()
	cfgC.Mode = CreditFC
	resI, err := NewNet(n, nil, cfgI).Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := NewNet(n, nil, cfgC).Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Deadlocked {
		t.Fatal("credit mode deadlocked under light load")
	}
	if math.Abs(resI.Makespan-resC.Makespan) > 0.2*resI.Makespan {
		t.Errorf("credit makespan %.0f vs ideal %.0f differ >20%%", resC.Makespan, resI.Makespan)
	}
}

func TestCreditFCPermutationCompletes(t *testing.T) {
	// Heavier load with finite buffers and VC escalation must still drain.
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	cfg := DefaultConfig()
	cfg.Mode = CreditFC
	cfg.LP.BufferB = 64 << 10 // small buffers to exercise backpressure
	rng := rand.New(rand.NewSource(5))
	flows := PermutationFlows(h.Endpoints, 128<<10, rng)
	res, err := NewNet(h.Network, nil, cfg).Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("credit mode deadlocked on permutation traffic")
	}
	var want int64
	for _, f := range flows {
		want += f.Bytes
	}
	if res.TotalBytes != want {
		t.Errorf("delivered %d, want %d", res.TotalBytes, want)
	}
}

func TestAdaptiveBeatsDeterministic(t *testing.T) {
	// Ablation: least-queued adaptive routing should not be slower than
	// deterministic first-candidate routing under permutation traffic.
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	rng := rand.New(rand.NewSource(11))
	flows := PermutationFlows(h.Endpoints, 128<<10, rng)
	cfgA := DefaultConfig()
	cfgD := DefaultConfig()
	cfgD.Choice = FirstCandidate
	resA, err := NewNet(h.Network, nil, cfgA).Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	resD, err := NewNet(h.Network, nil, cfgD).Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Makespan > resD.Makespan*1.05 {
		t.Errorf("adaptive %.0f ns slower than deterministic %.0f ns", resA.Makespan, resD.Makespan)
	}
}

func TestAlltoallShareSmallHxMesh(t *testing.T) {
	// A 4x4 Hx2Mesh alltoall should land between the asymptotic bound
	// (25%) and full injection; small clusters exceed the bound (§V-A1a).
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	share, err := AlltoallShare(simcore.Of(h.Network), nil, DefaultConfig(), 256<<10, 6, 4*50.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.15 || share > 1.0 {
		t.Errorf("alltoall share %.3f outside (0.15, 1.0)", share)
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{
		Makespan: 1000, TotalBytes: 50000,
		RecvByRank: []int64{0, 50000},
	}
	if got := r.AggregateGBps(); got != 50 {
		t.Errorf("AggregateGBps = %f, want 50", got)
	}
	var empty Result
	if empty.AggregateGBps() != 0 {
		t.Error("empty result bandwidth not 0")
	}
}

func TestAlltoallShareConcurrent(t *testing.T) {
	// Concurrent shifts on a direct topology must beat the serialized
	// single-shift measurement (path diversity needs many destinations).
	n := topo.NewHyperXDirect(8, 8, 4, lp())
	serial, err := AlltoallShare(simcore.Of(n), nil, DefaultConfig(), 64<<10, 4, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := AlltoallShareConcurrent(simcore.Of(n), nil, DefaultConfig(), 16<<10, 8, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if conc < serial {
		t.Errorf("concurrent share %.3f below serialized %.3f", conc, serial)
	}
	if conc <= 0 || conc > 1.01 {
		t.Errorf("concurrent share %.3f out of range", conc)
	}
}
