package netsim

import (
	"math/rand"
	"testing"

	"hammingmesh/internal/faults"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// Fault-aware UGAL on a heavily degraded Dragonfly: intermediate sampling
// is weighted by per-switch live-port counts, so dead routers are never
// proposed (a uniform sampler would waste ~a third of its draws on them,
// and every wasted draw is a packet that falls back to minimal routing),
// partially masked routers are proposed proportionally less, and the
// surviving non-minimal path diversity is actually used.
func TestUGALFaultAwareSampling(t *testing.T) {
	df := topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 8, LP: topo.DefaultLinkParams()})
	c := simcore.Of(df)
	b := faults.NewBuilder(c)
	// Kill 10 of the 32 routers outright...
	dead := make(map[int32]bool)
	for i := 0; i < 10; i++ {
		sw := c.Switches[3*i]
		b.FailNode(sw)
		dead[int32(sw)] = true
	}
	// ...and half the ports of one survivor.
	half := int32(c.Switches[1])
	off, end := c.PortRange(half)
	for pid := off; pid < off+(end-off)/2; pid++ {
		b.FailLink(pid)
	}
	fs := b.Build()
	tab := routing.NewTableMask(c, fs.Mask())
	cfg := DefaultConfig()
	cfg.UGAL = true
	s := New(c, tab, cfg)

	rng := rand.New(rand.NewSource(3))
	const draws = 8192
	counts := make(map[int32]int)
	for i := 0; i < draws; i++ {
		mid := s.weightedSwitch(rng)
		if mid < 0 {
			t.Fatal("weighted sampler returned no switch on a fabric with live switches")
		}
		if dead[mid] {
			t.Fatalf("weighted sampler proposed dead switch %d", mid)
		}
		counts[mid]++
	}
	if got, live := len(counts), len(c.Switches)-len(dead); got < live*8/10 {
		t.Fatalf("weighted sampler covered %d of %d live switches", got, live)
	}
	// The half-masked router is proposed roughly half as often as a fully
	// live one (compare against the mean over fully live routers).
	fullLive := 0.0
	n := 0
	for _, sw := range c.Switches {
		if int32(sw) != half && !dead[int32(sw)] {
			fullLive += float64(counts[int32(sw)])
			n++
		}
	}
	fullLive /= float64(n)
	if ratio := float64(counts[half]) / fullLive; ratio < 0.3 || ratio > 0.8 {
		t.Fatalf("half-masked switch sampled at %.2f of a live switch's rate, want ≈0.5", ratio)
	}
	// A uniform sampler over the same switch index wastes draws on the
	// dead routers — the diversity the weighting recovers.
	wasted := 0
	for i := 0; i < draws; i++ {
		if dead[int32(c.Switches[rng.Intn(len(c.Switches))])] {
			wasted++
		}
	}
	if wasted == 0 {
		t.Fatal("uniform baseline wasted no draws; the scenario is not degraded enough to be meaningful")
	}
	t.Logf("uniform sampling wasted %d/%d draws on dead routers; weighted wasted 0", wasted, draws)

	// End to end: UGAL traffic among the endpoints still attached to live
	// routers completes over the degraded fabric (an endpoint's single
	// link leads to its router, so a dead router cuts its endpoints off).
	alive := make([]topo.NodeID, 0, len(df.Endpoints))
	for _, ep := range df.Endpoints {
		router := c.Ports[c.PortOff[ep]].To
		uplinkMasked := fs.Mask().Get(c.PortOff[ep])
		if !dead[router] && !uplinkMasked && (len(alive) == 0 || tab.Reachable(alive[0], ep)) {
			alive = append(alive, ep)
		}
	}
	if len(alive) < 2 {
		t.Fatal("scenario cut off every endpoint")
	}
	res, err := New(c, tab, cfg).Run(ShiftFlows(alive, 3, 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != int64(len(alive))*16<<10 {
		t.Fatalf("delivered %d bytes", res.TotalBytes)
	}
}

// UGAL on a degraded Dragonfly: sampled intermediates that were cut off
// are skipped via the destination's cached distance vector, and the run
// completes among all endpoints (link faults are connectivity-preserving).
func TestUGALOnDegradedFabric(t *testing.T) {
	df := topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 8, LP: topo.DefaultLinkParams()})
	c := simcore.Of(df)
	b := faults.NewBuilder(c)
	b.AcceptedConnectedLinks(0.10, 5)
	fs := b.Build()
	tab := routing.NewTableMask(c, fs.Mask())
	cfg := DefaultConfig()
	cfg.UGAL = true
	res, err := New(c, tab, cfg).Run(ShiftFlows(df.Endpoints, 5, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != int64(len(df.Endpoints))*32<<10 {
		t.Fatalf("delivered %d bytes", res.TotalBytes)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}
