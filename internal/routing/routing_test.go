package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"hammingmesh/internal/faults"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

func lp() topo.LinkParams { return topo.DefaultLinkParams() }

// samplePath is AppendSamplePathPorts without the port record.
func samplePath(tab *Table, src, dst topo.NodeID, seed uint64) ([]topo.NodeID, error) {
	path, _, err := tab.AppendSamplePathPorts(nil, nil, src, dst, seed)
	return path, err
}

func TestNextPortsDecreaseDistance(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	tab := NewTableNet(h.Network)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		src := h.Endpoints[rng.Intn(len(h.Endpoints))]
		dst := h.Endpoints[rng.Intn(len(h.Endpoints))]
		if src == dst {
			continue
		}
		d := tab.Dist(dst)
		cands := tab.AppendCandidates(nil, int32(src), dst)
		if len(cands) == 0 {
			t.Fatalf("no candidates from %d to %d", src, dst)
		}
		for _, pid := range cands {
			if peer := tab.C.Ports[pid].To; d[peer] != d[src]-1 {
				t.Fatalf("port %d does not decrease distance", pid)
			}
		}
	}
}

func TestSamplePathIsShortestWalk(t *testing.T) {
	nets := []*topo.Network{
		topo.NewHxMesh(2, 2, 4, 4, lp()).Network,
		topo.NewFatTree(128, topo.NonblockingTree(), lp()),
		topo.NewTorus2D(8, 8, 2, 2, lp()),
		topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 5, LP: lp()}),
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range nets {
		tab := NewTableNet(n)
		for trial := 0; trial < 50; trial++ {
			src := n.Endpoints[rng.Intn(len(n.Endpoints))]
			dst := n.Endpoints[rng.Intn(len(n.Endpoints))]
			path, err := samplePath(tab, src, dst, uint64(trial))
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			if src == dst {
				if len(path) != 1 {
					t.Fatalf("%s: self path length %d", n.Name, len(path))
				}
				continue
			}
			if len(path) != tab.PathLen(src, dst)+1 {
				t.Fatalf("%s: path length %d != shortest %d", n.Name, len(path)-1, tab.PathLen(src, dst))
			}
			// Consecutive nodes must be adjacent.
			for i := 0; i+1 < len(path); i++ {
				adj := false
				for _, p := range n.Nodes[path[i]].Ports {
					if p.To == path[i+1] {
						adj = true
						break
					}
				}
				if !adj {
					t.Fatalf("%s: path nodes %d,%d not adjacent", n.Name, path[i], path[i+1])
				}
			}
		}
	}
}

func TestHxMeshIntermediateBoardPath(t *testing.T) {
	// Cross-row cross-column traffic must pass through an intermediate
	// board's accelerators or through two dimension networks (§IV-C2).
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	tab := NewTableNet(h.Network)
	src := h.Accel(0, 0) // board (0,0)
	dst := h.Accel(7, 7) // board (3,3)
	path, err := samplePath(tab, src, dst, 3)
	if err != nil {
		t.Fatal(err)
	}
	switches := 0
	for _, id := range path {
		if h.Nodes[id].Kind == topo.Switch {
			switches++
		}
	}
	if switches != 2 {
		t.Errorf("cross-row-column path crosses %d dimension networks, want 2 (path %v)", switches, path)
	}
}

func TestVCPolicyBounded(t *testing.T) {
	// Property: along any sampled path, the VC never exceeds MaxVCs-1 and
	// never decreases.
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	tab := NewTableNet(h.Network)
	f := func(s8, d8 uint8, seed uint64) bool {
		src := h.Endpoints[int(s8)%len(h.Endpoints)]
		dst := h.Endpoints[int(d8)%len(h.Endpoints)]
		path, err := samplePath(tab, src, dst, seed)
		if err != nil {
			return false
		}
		vc := int8(0)
		for i := 0; i+1 < len(path); i++ {
			nvc := VCPolicy(tab.C, int32(path[i]), int32(path[i+1]), vc)
			if nvc < vc || nvc >= MaxVCs {
				return false
			}
			vc = nvc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPrecompute warms a destination list that is not a multiple of the
// 64-source batch and repeats some destinations, through Precompute and
// through PrecomputeParallel at 1 and 3 workers, on the pristine fabric
// and on 10% connected link failures. The table must then cache exactly
// the listed destinations, each vector equal to the one a fresh table's
// lazy Dist builds.
func TestPrecompute(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 8, 8, lp())
	c := simcore.Compile(h.Network)
	links10 := faults.NewBuilder(c)
	links10.AcceptedConnectedLinks(0.1, 5)
	rng := rand.New(rand.NewSource(3))
	dsts := make([]topo.NodeID, 150) // 2 full batches and a partial one, before duplicates
	for i := range dsts {
		dsts[i] = topo.NodeID(rng.Intn(c.NumNodes()))
	}
	dsts = append(dsts, dsts[7], dsts[70], dsts[149], dsts[7])
	want := map[topo.NodeID]bool{}
	for _, d := range dsts {
		want[d] = true
	}
	if len(want)%simcore.BFSBatch == 0 || len(want) == len(dsts) {
		t.Fatalf("%d distinct of %d destinations: want a partial batch and repeats", len(want), len(dsts))
	}
	for _, mask := range []simcore.PortMask{nil, links10.Build().Mask()} {
		ref := NewTableMask(c, mask)
		for name, warm := range map[string]func(*Table){
			"Precompute":            func(tab *Table) { tab.Precompute(dsts) },
			"PrecomputeParallel(1)": func(tab *Table) { tab.PrecomputeParallel(dsts, 1) },
			"PrecomputeParallel(3)": func(tab *Table) { tab.PrecomputeParallel(dsts, 3) },
		} {
			tab := NewTableMask(c, mask)
			warm(tab)
			for i := range tab.dist {
				d := topo.NodeID(i)
				p := tab.dist[d].Load()
				if (p != nil) != want[d] {
					t.Fatalf("%s (mask %v): vector of node %d cached %v, want %v", name, mask != nil, d, p != nil, want[d])
				}
				if p != nil && !slices.Equal(*p, ref.Dist(d)) {
					t.Fatalf("%s (mask %v): vector of node %d differs from lazy Dist", name, mask != nil, d)
				}
			}
			if got := tab.MemoryBytes(); got != 4*int64(len(want))*int64(c.NumNodes()) {
				t.Fatalf("%s: MemoryBytes %d after warming %d vectors", name, got, len(want))
			}
		}
	}
}

// TestPrecomputeParallelRacesLazyDist warms one cold shared table in
// chunks while lazy Dist readers race it over the same destinations, the
// pattern of a sweep whose jobs start before its warm-up ends. Whichever
// build publishes a vector first, every reader and the final table must
// see the single-source vector. CI runs it under -race, repeated.
func TestPrecomputeParallelRacesLazyDist(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 8, 8, lp())
	c := simcore.Compile(h.Network)
	links10 := faults.NewBuilder(c)
	links10.AcceptedConnectedLinks(0.1, 9)
	mask := links10.Build().Mask()
	want := make([][]int32, c.NumNodes())
	for i := range want {
		want[i] = c.BFSFromMask(topo.NodeID(i), mask)
	}
	all := make([]topo.NodeID, c.NumNodes())
	for i := range all {
		all[i] = topo.NodeID(i)
	}
	tab := NewTableMask(c, mask)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tab.PrecomputeParallel(all, 3)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := range all {
				d := (k*(2*r+1) + r*97) % len(all) // each reader in its own order
				if !slices.Equal(tab.Dist(topo.NodeID(d)), want[d]) {
					t.Errorf("reader %d: Dist(%d) differs from the single-source BFS", r, d)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for d := range all {
		if p := tab.dist[d].Load(); p == nil || !slices.Equal(*p, want[d]) {
			t.Fatalf("vector of node %d missing or wrong after the race", d)
		}
	}
}

func TestMaskedTableRoutesAroundFailures(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	c := simcore.Of(h.Network)
	// Fail one cable (both directions) of endpoint 0 and verify routes
	// avoid it while everything stays reachable.
	pid := c.PortID(0, 0)
	mask := simcore.NewPortMask(c.NumPorts())
	mask.Set(pid)
	mask.Set(c.Ports[pid].Rev)
	tab := NewTableMask(c, mask)
	for _, dst := range h.Endpoints {
		if dst == 0 {
			continue
		}
		cands := tab.AppendCandidates(nil, 0, dst)
		if len(cands) == 0 {
			t.Fatalf("dst %d has no candidate after one link failure", dst)
		}
		for _, ci := range cands {
			if ci == pid {
				t.Fatalf("candidates toward %d include masked port %d", dst, pid)
			}
		}
	}
	if _, err := samplePath(tab, 0, h.Endpoints[5], 3); err != nil {
		t.Fatalf("sample path on reachable pair: %v", err)
	}
}

func TestUnreachableIsTypedError(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	c := simcore.Of(h.Network)
	// Mask every port of endpoint 7 in both directions: it is cut off.
	mask := simcore.NewPortMask(c.NumPorts())
	off, end := c.PortRange(7)
	for pid := off; pid < end; pid++ {
		mask.Set(pid)
		mask.Set(c.Ports[pid].Rev)
	}
	tab := NewTableMask(c, mask)
	if tab.Reachable(0, 7) {
		t.Fatal("cut-off endpoint reported reachable")
	}
	if cands := tab.AppendCandidates(nil, 0, 7); len(cands) != 0 {
		t.Fatalf("candidates toward a cut-off endpoint: %v", cands)
	}
	var unreach *ErrUnreachable
	if _, err := samplePath(tab, 0, 7, 1); !errors.As(err, &unreach) {
		t.Fatalf("AppendSamplePathPorts = %v, want *ErrUnreachable", err)
	}
	if unreach.From != 0 || unreach.To != 7 {
		t.Fatalf("error carries %d->%d, want 0->7", unreach.From, unreach.To)
	}
	if got := tab.PathLen(0, 7); got != -1 {
		t.Fatalf("PathLen = %d, want -1", got)
	}
}

// refDAG is the per-destination candidate DAG the table used to cache,
// kept as the reference the scan is pinned to: the candidates of node u
// are ports[off[u]:off[u+1]].
type refDAG struct {
	off   []int32
	ports []int32
}

// buildRefDAG compiles the shortest-path DAG toward dst the way the cached
// DAG was built: per node, the unmasked ports whose peer is one hop closer,
// in port order; none at dst or at nodes that cannot reach it.
func buildRefDAG(t *Table, dst topo.NodeID) *refDAG {
	d := t.Dist(dst)
	c := t.C
	cv := &refDAG{off: make([]int32, c.NumNodes()+1)}
	for u := 0; u < c.NumNodes(); u++ {
		cv.off[u] = int32(len(cv.ports))
		if int32(u) == int32(dst) || d[u] < 0 {
			continue
		}
		want := d[u] - 1
		off, end := c.PortRange(int32(u))
		for pid := off; pid < end; pid++ {
			if t.mask.Get(pid) {
				continue
			}
			if d[c.Ports[pid].To] == want {
				cv.ports = append(cv.ports, pid)
			}
		}
	}
	cv.off[c.NumNodes()] = int32(len(cv.ports))
	return cv
}

func (cv *refDAG) of(u int32) []int32 { return cv.ports[cv.off[u]:cv.off[u+1]] }

// refSample is one result of refSamplePath, the DAG walk the sampler used
// while a DAG was cached: one LCG draw per hop picks among the node's DAG
// candidates.
type refSample struct {
	path  []topo.NodeID
	ports []int32
	err   *ErrUnreachable
}

func refSamplePath(t *Table, dag *refDAG, src, dst topo.NodeID, seed uint64) refSample {
	if t.Dist(dst)[src] < 0 {
		return refSample{err: &ErrUnreachable{From: src, To: dst}}
	}
	r := refSample{path: []topo.NodeID{src}}
	at := int32(src)
	rng := seed
	for at != int32(dst) {
		cands := dag.of(at)
		if len(cands) == 0 {
			return refSample{err: &ErrUnreachable{From: topo.NodeID(at), To: dst}}
		}
		rng = rng*6364136223846793005 + 1442695040888963407
		chosen := cands[int(rng>>33)%len(cands)]
		at = t.C.Ports[chosen].To
		r.path = append(r.path, topo.NodeID(at))
		r.ports = append(r.ports, chosen)
	}
	return r
}

// checkSample compares one AppendSamplePathPorts result with the DAG walk.
func checkSample(want refSample, path []topo.NodeID, ports []int32, err error) string {
	if want.err != nil {
		var got *ErrUnreachable
		if !errors.As(err, &got) || *got != *want.err {
			return fmt.Sprintf("error %v, want %v", err, want.err)
		}
		return ""
	}
	if err != nil {
		return fmt.Sprintf("unexpected error %v", err)
	}
	if !slices.Equal(path, want.path) || !slices.Equal(ports, want.ports) {
		return "path or ports differ from the DAG walk"
	}
	return ""
}

// TestScanMatchesReference pins AppendCandidates and AppendSamplePathPorts
// bit for bit to the candidate DAG and DAG walk they replaced, on a
// pristine fabric and three degraded ones (one masked port direction, 10%
// connected link failures, and asymmetric single-direction faults that cut
// one endpoint's sends). Four goroutines run every comparison against one
// cold table, so the lock-free vector publication is raced as well.
func TestScanMatchesReference(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	c := simcore.Compile(h.Network)
	onePort := simcore.NewPortMask(c.NumPorts())
	onePort.Set(c.PortID(int32(c.Switches[0]), 1))
	asym := faults.NewBuilder(c)
	off, end := c.PortRange(int32(h.Endpoints[5]))
	for pid := off; pid < end; pid++ {
		asym.FailPortDir(pid) // endpoint 5 receives but cannot send
	}
	for _, sw := range c.Switches[:4] {
		asym.FailPortDir(c.PortID(int32(sw), 2))
	}
	links10 := faults.NewBuilder(c)
	links10.AcceptedConnectedLinks(0.1, 3)
	fabrics := []struct {
		name string
		mask simcore.PortMask
	}{
		{"pristine", nil},
		{"one-port", onePort},
		{"links10", links10.Build().Mask()},
		{"asymmetric", asym.Build().Mask()},
	}
	type pair struct {
		src, dst topo.NodeID
		seed     uint64
	}
	for _, fab := range fabrics {
		ref := NewTableMask(c, fab.mask)
		rng := rand.New(rand.NewSource(11))
		dsts := make([]topo.NodeID, 24)
		dags := make([]*refDAG, len(dsts))
		for i := range dsts {
			dsts[i] = topo.NodeID(rng.Intn(c.NumNodes()))
			dags[i] = buildRefDAG(ref, dsts[i])
		}
		pairs := make([]pair, 200)
		walks := make([]refSample, len(pairs))
		for i := range pairs {
			p := pair{
				src:  h.Endpoints[rng.Intn(len(h.Endpoints))],
				dst:  h.Endpoints[rng.Intn(len(h.Endpoints))],
				seed: rng.Uint64(),
			}
			pairs[i] = p
			walks[i] = refSamplePath(ref, buildRefDAG(ref, p.dst), p.src, p.dst, p.seed)
		}

		tab := NewTableMask(c, fab.mask) // cold, shared by every worker
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var cbuf [8]int32 // small, so wider nodes also grow the buffer
				for k := range dsts {
					i := (k + w*len(dsts)/4) % len(dsts)
					for u := int32(0); u < int32(c.NumNodes()); u++ {
						got := tab.AppendCandidates(cbuf[:0], u, dsts[i])
						if want := dags[i].of(u); !slices.Equal(got, want) {
							t.Errorf("%s: node %d toward %d: scan %v, DAG %v", fab.name, u, dsts[i], got, want)
							return
						}
					}
				}
				pathBuf, portBuf := []topo.NodeID{}, []int32{}
				for k := range pairs {
					i := (k + w*len(pairs)/4) % len(pairs)
					p := pairs[i]
					path, ports, err := tab.AppendSamplePathPorts(pathBuf[:0], portBuf[:0], p.src, p.dst, p.seed)
					if msg := checkSample(walks[i], path, ports, err); msg != "" {
						t.Errorf("%s: pair %d (%d->%d seed %d): %s", fab.name, i, p.src, p.dst, p.seed, msg)
						return
					}
					if err == nil {
						pathBuf, portBuf = path, ports
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestSamplePathScanWideFanout pins a node whose candidate set outgrows
// the sampler's 64-entry stack buffer (a 70-wide trunk) to the DAG walk:
// the scan must return all 70 trunk ports in port order and the walk must
// reach picks past the 64th.
func TestSamplePathScanWideFanout(t *testing.T) {
	n := &topo.Network{Name: "widefanout"}
	src := n.AddNode(topo.Endpoint)
	a := n.AddNode(topo.Switch)
	b := n.AddNode(topo.Switch)
	dst := n.AddNode(topo.Endpoint)
	n.Link(src, a, topo.PCB, 50, 20)
	for i := 0; i < 70; i++ {
		n.Link(a, b, topo.PCB, 50, 20) // 70-wide trunk: more candidates than the buffer
	}
	n.Link(b, dst, topo.PCB, 50, 20)
	c := simcore.Compile(n)
	tab := NewTableMask(c, nil)
	dag := buildRefDAG(tab, dst)
	if got := tab.AppendCandidates(nil, int32(a), dst); len(got) != 70 || !slices.Equal(got, dag.of(int32(a))) {
		t.Fatalf("trunk candidates %v, want the DAG's %v", got, dag.of(int32(a)))
	}
	pastBuffer := false
	for seed := uint64(0); seed < 300; seed++ {
		path, ports, err := tab.AppendSamplePathPorts(nil, []int32{}, src, dst, seed)
		want := refSamplePath(tab, dag, src, dst, seed)
		if msg := checkSample(want, path, ports, err); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
		if len(path) != 4 {
			t.Fatalf("seed %d: path length %d, want 4", seed, len(path))
		}
		// The trunk hop's pick lands past the 64th candidate for ~6/70 of
		// the seeds, after the candidate buffer has grown.
		if trunkPort := ports[1] - c.PortID(int32(a), 0); trunkPort >= 64 {
			pastBuffer = true
		}
	}
	if !pastBuffer {
		t.Fatal("no seed picked a trunk candidate past the 64-entry buffer")
	}
}
