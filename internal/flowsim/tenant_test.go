package flowsim

import (
	"math"
	"testing"

	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// star builds a hub-and-spoke contention network: n endpoints each linked
// to one switch with capacity gbps.
func star(n int, gbps float64) *topo.Network {
	net := &topo.Network{Name: "star"}
	p := topo.DefaultLinkParams()
	hub := net.AddNode(topo.Switch)
	for i := 0; i < n; i++ {
		ep := net.AddNode(topo.Endpoint)
		net.Link(ep, hub, topo.AoC, gbps, p.CableNS)
	}
	return net
}

func tenantSolver(t *testing.T, net *topo.Network) *Solver {
	t.Helper()
	return New(simcore.Compile(net), nil, Config{})
}

// starPath is the path from endpoint src up to the hub and down to dst:
// src's only port, then the hub's port to dst (the reverse of dst's).
func starPath(s *Solver, src, dst topo.NodeID) []int32 {
	c := s.comp
	return []int32{c.PortOff[src], c.Ports[c.PortOff[dst]].Rev}
}

func TestTenantSharesUncontended(t *testing.T) {
	net := star(4, 100)
	s := tenantSolver(t, net)
	eps := s.comp.Endpoints
	// One tenant, demand well under capacity: fully satisfied.
	shares, err := s.TenantShares([]Demand{
		{Ports: starPath(s, eps[0], eps[1]), Weight: 50, Tenant: 0},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if shares[0] != 1 {
		t.Fatalf("uncontended share = %v, want 1", shares[0])
	}
	// No demands at all: every tenant reports 1.
	shares, err = s.TenantShares(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shares {
		if sh != 1 {
			t.Fatalf("empty-matrix share[%d] = %v, want 1", i, sh)
		}
	}
}

func TestTenantSharesFairSplit(t *testing.T) {
	net := star(4, 100)
	s := tenantSolver(t, net)
	eps := s.comp.Endpoints
	// Two equal tenants into the same destination: the 100 GB/s ingress
	// link splits evenly, each achieving 50/100 of its offered load.
	shares, err := s.TenantShares([]Demand{
		{Ports: starPath(s, eps[0], eps[2]), Weight: 100, Tenant: 0},
		{Ports: starPath(s, eps[1], eps[2]), Weight: 100, Tenant: 1},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shares {
		if math.Abs(sh-0.5) > 1e-9 {
			t.Fatalf("share[%d] = %v, want 0.5", i, sh)
		}
	}
	// Weighted: a tenant offering 3× the load gets 3× the rate (same
	// share), weighted max-min being proportional under a shared
	// bottleneck.
	shares, err = s.TenantShares([]Demand{
		{Ports: starPath(s, eps[0], eps[2]), Weight: 300, Tenant: 0},
		{Ports: starPath(s, eps[1], eps[2]), Weight: 100, Tenant: 1},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shares[0]-shares[1]) > 1e-9 {
		t.Fatalf("weighted shares diverge: %v vs %v (want equal fractions)", shares[0], shares[1])
	}
	if math.Abs(shares[0]-0.25) > 1e-9 {
		t.Fatalf("share = %v, want 0.25 (400 offered into 100 capacity)", shares[0])
	}
}

func TestTenantSharesMonotoneInContenders(t *testing.T) {
	net := star(8, 100)
	s := tenantSolver(t, net)
	eps := s.comp.Endpoints
	// Tenant 0's fixed demand; adding contenders into the same hot link
	// can only lower (never raise) its share.
	prev := 2.0
	for k := 0; k <= 5; k++ {
		demands := []Demand{{Ports: starPath(s, eps[0], eps[7]), Weight: 80, Tenant: 0}}
		for j := 0; j < k; j++ {
			demands = append(demands, Demand{Ports: starPath(s, eps[1+j], eps[7]), Weight: 80, Tenant: int32(1 + j)})
		}
		shares, err := s.TenantShares(demands, 1+k)
		if err != nil {
			t.Fatal(err)
		}
		if shares[0] > prev+1e-9 {
			t.Fatalf("share rose with %d contenders: %v -> %v", k, prev, shares[0])
		}
		prev = shares[0]
	}
	if prev >= 0.5 {
		t.Fatalf("6-way contention share %v not materially degraded", prev)
	}
}

func TestTenantSharesDeterministic(t *testing.T) {
	net := star(6, 100)
	s := tenantSolver(t, net)
	eps := s.comp.Endpoints
	demands := []Demand{
		{Ports: starPath(s, eps[0], eps[4]), Weight: 90, Tenant: 0},
		{Ports: starPath(s, eps[1], eps[4]), Weight: 60, Tenant: 1},
		{Ports: starPath(s, eps[2], eps[5]), Weight: 30, Tenant: 0},
	}
	a, err := s.TenantShares(demands, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Same solver, repeated call: byte-identical (scratch reuse must not
	// leak state). Fresh solver: also identical.
	b, err := s.TenantShares(demands, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := tenantSolver(t, net)
	c, err := s2.TenantShares(demands, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("nondeterministic shares: %v %v %v", a, b, c)
		}
	}
}

func TestTenantSharesRejects(t *testing.T) {
	net := star(3, 100)
	s := tenantSolver(t, net)
	eps := s.comp.Endpoints
	if _, err := s.TenantShares([]Demand{{Ports: starPath(s, eps[0], eps[1]), Weight: 0, Tenant: 0}}, 1); err == nil {
		t.Fatal("zero-weight demand must error")
	}
	if _, err := s.TenantShares([]Demand{{Ports: starPath(s, eps[0], eps[1]), Weight: 1, Tenant: 5}}, 1); err == nil {
		t.Fatal("out-of-range tenant must error")
	}
}
