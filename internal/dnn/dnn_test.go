package dnn

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func perf(t *testing.T, name string) NetPerf {
	t.Helper()
	p, ok := PerfByName(name)
	if !ok {
		t.Fatalf("no perf for %s", name)
	}
	return p
}

func TestResNetOverheadTiny(t *testing.T) {
	// §V-B2: "less than 2.5% communication overhead in the worst case".
	m := Models()[0]
	if m.Name != "ResNet-152" {
		t.Fatal("model order changed")
	}
	for _, np := range StandardPerf() {
		it := IterationMS(m, np)
		overhead := (it - m.ComputeMS) / m.ComputeMS
		if overhead < 0 || overhead > 0.025 {
			t.Errorf("%s: ResNet overhead %.3f, want ≤0.025", np.Name, overhead)
		}
	}
}

func TestGPT3TopologyOrdering(t *testing.T) {
	// §V-B5: fat tree < HyperX ≈ Hx2 < Hx4 < torus for GPT-3 runtimes.
	var m Model
	for _, mm := range Models() {
		if mm.Name == "GPT-3" {
			m = mm
		}
	}
	ft := IterationMS(m, perf(t, "fattree"))
	hx2 := IterationMS(m, perf(t, "hx2mesh"))
	hx4 := IterationMS(m, perf(t, "hx4mesh"))
	torus := IterationMS(m, perf(t, "torus"))
	if !(ft < hx2 && hx2 < hx4 && hx4 < torus) {
		t.Errorf("ordering violated: ft=%.1f hx2=%.1f hx4=%.1f torus=%.1f", ft, hx2, hx4, torus)
	}
	// The torus should be far slower than the fat tree (paper: 72 vs 35),
	// roughly a factor of two.
	if torus < 1.5*ft {
		t.Errorf("torus %.1f not ≥1.5x fat tree %.1f", torus, ft)
	}
}

func TestGPT3NearPaperRuntimes(t *testing.T) {
	// Model-vs-paper within a factor of 1.6 on the distinctive entries.
	var m Model
	for _, mm := range Models() {
		if mm.Name == "GPT-3" {
			m = mm
		}
	}
	for _, name := range []string{"fattree", "hx2mesh", "hx4mesh", "torus"} {
		want := PaperRuntimesMS["GPT-3"][name]
		got := IterationMS(m, perf(t, name))
		if got < want/1.6 || got > want*1.6 {
			t.Errorf("%s: modeled %.1f ms vs paper %.1f ms (>1.6x off)", name, got, want)
		}
	}
}

func TestCostSavingFormula(t *testing.T) {
	// ResNet-152, Hx4Mesh vs nonblocking fat tree: cost ratio 25.3/2.7
	// with nearly equal overheads gives savings in the ballpark of the
	// paper's 7.8 (§V-B2, Fig. 15).
	m := Models()[0]
	s := CostSaving(m, 2.7, 25.3, perf(t, "hx4mesh"), perf(t, "fattree"))
	if s < 4 || s > 13 {
		t.Errorf("ResNet Hx4-vs-FT saving = %.1f, want ≈7.8 (4..13)", s)
	}
	// GPT-3 is communication bound, so the saving shrinks (paper: 1.5).
	var g Model
	for _, mm := range Models() {
		if mm.Name == "GPT-3" {
			g = mm
		}
	}
	s = CostSaving(g, 2.7, 25.3, perf(t, "hx4mesh"), perf(t, "fattree"))
	if s < 0.7 || s > 3.5 {
		t.Errorf("GPT-3 Hx4-vs-FT saving = %.1f, want ≈1.5 (0.7..3.5)", s)
	}
}

// Fig. 15: every topology but the HxMesh itself gets a column, priced from
// its inventory (every column finds a cost), and the saving of Hx2Mesh
// over Hx4Mesh is the reciprocal of the reverse saving.
func TestCostSavingsMatrix(t *testing.T) {
	vs2, rows2 := CostSavings("hx2mesh")
	vs4, rows4 := CostSavings("hx4mesh")
	if len(vs2) != len(StandardPerf())-1 || len(rows2) != len(Models()) {
		t.Fatalf("hx2mesh matrix %d columns x %d rows", len(vs2), len(rows2))
	}
	i4, i2 := slices.Index(vs2, "hx4mesh"), slices.Index(vs4, "hx2mesh")
	if i4 < 0 || i2 < 0 || slices.Contains(vs2, "hx2mesh") {
		t.Fatalf("columns %v and %v", vs2, vs4)
	}
	for m := range rows2 {
		for j, s := range rows2[m] {
			if !(s > 0) {
				t.Fatalf("model %d vs %s: saving %v", m, vs2[j], s)
			}
		}
		if p := rows2[m][i4] * rows4[m][i2]; math.Abs(p-1) > 1e-12 {
			t.Errorf("model %d: hx2mesh-vs-hx4mesh x hx4mesh-vs-hx2mesh = %v, want 1", m, p)
		}
	}
}

func TestDLRMRuntimeNearPaper(t *testing.T) {
	var m Model
	for _, mm := range Models() {
		if mm.Name == "DLRM" {
			m = mm
		}
	}
	for _, name := range []string{"fattree", "hx2mesh", "torus"} {
		want := PaperRuntimesMS["DLRM"][name]
		got := IterationMS(m, perf(t, name))
		if got < want*0.6 || got > want*1.5 {
			t.Errorf("%s: DLRM modeled %.2f ms vs paper %.2f ms", name, got, want)
		}
	}
}

func TestAcceleratorCounts(t *testing.T) {
	want := map[string]int{
		"ResNet-152": 1024, "CosmoFlow": 1024, "GPT-3": 384, "GPT-3-MoE": 384, "DLRM": 128,
	}
	for _, m := range Models() {
		if got := m.D * m.P * m.O; got != want[m.Name] {
			t.Errorf("%s: accelerators = %d, want %d", m.Name, got, want[m.Name])
		}
	}
}

func TestIterationMonotoneInBandwidth(t *testing.T) {
	// Property: raising every bandwidth never increases iteration time.
	f := func(ar, a2a, p2p uint8) bool {
		base := NetPerf{AllreduceGBps: 1 + float64(ar), AlltoallGBps: 1 + float64(a2a), P2PGBps: 1 + float64(p2p), AlphaUS: 1}
		faster := NetPerf{AllreduceGBps: base.AllreduceGBps * 2, AlltoallGBps: base.AlltoallGBps * 2, P2PGBps: base.P2PGBps * 2, AlphaUS: 1}
		for _, m := range Models() {
			if IterationMS(m, faster) > IterationMS(m, base)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPaperRuntimesCoverage(t *testing.T) {
	for _, m := range Models() {
		tbl, ok := PaperRuntimesMS[m.Name]
		if !ok {
			t.Errorf("no paper runtimes for %s", m.Name)
			continue
		}
		for _, topo := range []string{"fattree", "hx2mesh", "hx4mesh", "torus"} {
			if _, ok := tbl[topo]; !ok {
				t.Errorf("%s missing paper runtime for %s", m.Name, topo)
			}
		}
	}
}
