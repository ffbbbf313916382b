package netsim

import (
	"math"
	"testing"

	"hammingmesh/internal/flowsim"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// The golden values below were captured from the pre-simcore (map-based)
// engine on the same inputs; the flat-array refactor must reproduce them
// exactly. LeastQueued routing is fully deterministic, so any drift means
// the refactor changed simulation semantics, not just representation.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestRegressionAlltoallGolden(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 2, 2, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	flows := ShiftFlows(h.Endpoints, 3, 64<<10)

	res, err := New(c, nil, DefaultConfig()).Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Makespan, 1838.3999999999999) {
		t.Errorf("makespan = %v, want 1838.4", res.Makespan)
	}
	if res.TotalBytes != 1048576 {
		t.Errorf("totalBytes = %d, want 1048576", res.TotalBytes)
	}
	if res.Events != 704 {
		t.Errorf("events = %d, want 704", res.Events)
	}
	if len(res.RecvByRank) != 16 {
		t.Fatalf("recvByRank has %d entries, want 16", len(res.RecvByRank))
	}
	for r, b := range res.RecvByRank {
		if b != 65536 {
			t.Errorf("rank %d received %d bytes, want 65536", r, b)
		}
	}

	// Credit-based flow control with small buffers exercises the flat
	// waiter arrays; the outcome matched ideal mode in the seed engine.
	cfg := DefaultConfig()
	cfg.Mode = CreditFC
	cfg.LP.BufferB = 32 << 10
	resC, err := New(c, nil, cfg).Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Deadlocked {
		t.Fatal("credit run deadlocked")
	}
	if !near(resC.Makespan, 1838.3999999999999) || resC.Events != 704 {
		t.Errorf("credit run makespan=%v events=%d, want 1838.4/704", resC.Makespan, resC.Events)
	}

	// Multi-shift sampled sweep (the Table II global-bandwidth estimator).
	share, err := AlltoallShare(c, nil, DefaultConfig(), 64<<10, 4, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !near(share, 0.1956812535830308) {
		t.Errorf("alltoall share = %v, want 0.1956812535830308", share)
	}
}

func TestRegressionUGALGolden(t *testing.T) {
	df := topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 8, LP: topo.DefaultLinkParams()})
	cfg := DefaultConfig()
	cfg.UGAL = true
	res, err := NewNet(df, nil, cfg).Run(ShiftFlows(df.Endpoints, 5, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Makespan, 4432.160000000002) {
		t.Errorf("makespan = %v, want 4432.16", res.Makespan)
	}
	if res.TotalBytes != 2097152 || res.Events != 2272 {
		t.Errorf("totalBytes=%d events=%d, want 2097152/2272", res.TotalBytes, res.Events)
	}
}

func TestRegressionFlowsimGolden(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 2, 2, topo.DefaultLinkParams())
	c := simcore.Of(h.Network)
	s := flowsim.New(c, nil, flowsim.Config{Seed: 11, ValiantPaths: 2})
	rates, err := s.Solve(flowsim.ShiftFlows(h.Network.Endpoints, 5))
	if err != nil {
		t.Fatal(err)
	}
	sum, minR := 0.0, rates[0]
	for _, r := range rates {
		sum += r
		if r < minR {
			minR = r
		}
	}
	if len(rates) != 16 || !near(sum, 934.9999999999998) || !near(minR, 36.666666666666664) {
		t.Errorf("flowsim rates n=%d sum=%v min=%v, want 16/935/36.67", len(rates), sum, minR)
	}
	share, err := s.AlltoallShare(6, 200, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !near(share, 0.2591991783278303) {
		t.Errorf("flowsim share = %v, want 0.2591991783278303", share)
	}
}
