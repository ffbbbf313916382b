package netsim

import (
	"testing"

	"hammingmesh/internal/topo"
)

// TestResetReuseMatchesFreshSim pins that driving one Sim through a
// sequence of runs (the sweep-job pattern) reproduces the results of a
// fresh Sim per run bit-for-bit under the deterministic default config:
// buffer reuse must be invisible to simulation semantics.
func TestResetReuseMatchesFreshSim(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	shifts := []int{1, 3, 7, 3, 12}
	for _, mode := range []Mode{IdealBuffers, CreditFC} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		if mode == CreditFC {
			cfg.LP.BufferB = 64 << 10
		}
		reused := NewNet(h.Network, nil, cfg)
		for _, shift := range shifts {
			flows := ShiftFlows(h.Endpoints, shift, 128<<10)
			got, err := reused.Run(flows)
			if err != nil {
				t.Fatalf("mode %d shift %d: reused: %v", mode, shift, err)
			}
			gotMakespan, gotEvents, gotBytes := got.Makespan, got.Events, got.TotalBytes
			gotFinish := append([]float64(nil), got.FlowFinish...)

			want, err := NewNet(h.Network, nil, cfg).Run(flows)
			if err != nil {
				t.Fatalf("mode %d shift %d: fresh: %v", mode, shift, err)
			}
			if gotMakespan != want.Makespan || gotEvents != want.Events || gotBytes != want.TotalBytes {
				t.Fatalf("mode %d shift %d: reused makespan=%v events=%d bytes=%d, fresh %v/%d/%d",
					mode, shift, gotMakespan, gotEvents, gotBytes, want.Makespan, want.Events, want.TotalBytes)
			}
			for i := range want.FlowFinish {
				if gotFinish[i] != want.FlowFinish[i] {
					t.Fatalf("mode %d shift %d flow %d: finish %v != %v", mode, shift, i, gotFinish[i], want.FlowFinish[i])
				}
			}
		}
	}
}

// TestWideNodeRunNoAlloc: a node with more minimal candidates than a
// small scratch buffer holds (40 parallel links to the next hop, as at a
// 16k-endpoint leaf switch with 32 upward ports) must route without
// allocating. pickOutput collects the candidates into a 64-entry stack
// buffer; a 16-entry one would allocate on every hop across the trunk.
func TestWideNodeRunNoAlloc(t *testing.T) {
	n := &topo.Network{Name: "wide-trunk"}
	a := n.AddNode(topo.Switch)
	b := n.AddNode(topo.Switch)
	for i := 0; i < 40; i++ {
		n.Link(a, b, topo.PCB, 50, 20)
	}
	var flows []Flow
	for i := 0; i < 2; i++ {
		l, r := n.AddNode(topo.Endpoint), n.AddNode(topo.Endpoint)
		n.Link(l, a, topo.PCB, 50, 20)
		n.Link(r, b, topo.PCB, 50, 20)
		flows = append(flows, Flow{Src: l, Dst: r, Bytes: 64 << 10}, Flow{Src: r, Dst: l, Bytes: 64 << 10})
	}
	sim := NewNet(n, nil, DefaultConfig())
	for i := 0; i < 3; i++ {
		if _, err := sim.Run(flows); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := sim.Run(flows); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Run across a 40-wide trunk allocates %.1f times per op, want 0", avg)
	}
}

// TestResetRejectsBadFlows checks Reset's validation surfaces the same
// typed errors Run always produced.
func TestResetRejectsBadFlows(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 2, 2, topo.DefaultLinkParams())
	sim := NewNet(h.Network, nil, DefaultConfig())
	if err := sim.Reset([]Flow{{Src: h.Endpoints[0], Dst: h.Endpoints[0], Bytes: 1}}); err == nil {
		t.Error("self-flow not rejected by Reset")
	}
	// A rejected Reset must not poison the next valid Run.
	res, err := sim.Run(ShiftFlows(h.Endpoints, 1, 8<<10))
	if err != nil {
		t.Fatalf("run after rejected reset: %v", err)
	}
	if res.TotalBytes == 0 {
		t.Error("no bytes delivered after rejected reset")
	}
}
