package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDistributionNormalized(t *testing.T) {
	d := AlibabaLike()
	sum := 0.0
	for _, p := range d.Probs {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probabilities sum to %f", sum)
	}
}

func TestFig7Calibration(t *testing.T) {
	// Fig. 7 annotates: "39% of the boards are allocated to jobs of less
	// than 100 boards". Our substituted distribution must land near that.
	d := AlibabaLike()
	share := d.BoardShareBelow(400) // 100 boards x 4 accels
	if share < 0.3 || share > 0.5 {
		t.Errorf("board share below 100 Hx2 boards = %.3f, want ≈0.39", share)
	}
}

func TestBoardCDFMonotone(t *testing.T) {
	d := AlibabaLike()
	cdf := d.BoardCDF()
	prev := 0.0
	for i, v := range cdf {
		if v < prev || v > 1.0001 {
			t.Fatalf("CDF not monotone at %d: %f after %f", i, v, prev)
		}
		prev = v
	}
	if cdf[len(cdf)-1] < 0.999 {
		t.Errorf("CDF ends at %f", cdf[len(cdf)-1])
	}
}

func TestSamplerMixFillsExactly(t *testing.T) {
	s := NewSampler(AlibabaLike(), 42)
	for trial := 0; trial < 50; trial++ {
		mix := s.Mix(256, 4)
		sum := 0
		for _, sz := range mix {
			if sz <= 0 {
				t.Fatalf("non-positive job size %d", sz)
			}
			sum += sz
		}
		if sum != 256 {
			t.Fatalf("mix sums to %d, want 256", sum)
		}
	}
}

func TestSamplerCarry(t *testing.T) {
	// With a tiny cluster, large samples must be carried, never dropped
	// into the current mix.
	s := NewSampler(AlibabaLike(), 7)
	for trial := 0; trial < 30; trial++ {
		mix := s.Mix(8, 4)
		for _, sz := range mix {
			if sz > 8 {
				t.Fatalf("job of %d boards in an 8-board mix", sz)
			}
		}
	}
}

func TestShapeFor(t *testing.T) {
	cases := []struct{ size, u, v int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {9, 3, 3},
		{12, 3, 4}, {100, 10, 10}, {7, 1, 7},
	}
	for _, c := range cases {
		u, v := ShapeFor(c.size)
		if u != c.u || v != c.v {
			t.Errorf("ShapeFor(%d) = %dx%d, want %dx%d", c.size, u, v, c.u, c.v)
		}
	}
}

func TestShapeForQuick(t *testing.T) {
	// Property: u*v ≥ size, waste < u, u ≤ v.
	f := func(s16 uint16) bool {
		size := int(s16%2000) + 1
		u, v := ShapeFor(size)
		return u <= v && u*v >= size && u*v-size < u+v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFailuresReduceUtilization(t *testing.T) {
	d := AlibabaLike()
	s := NewSampler(d, 3)
	rng := rand.New(rand.NewSource(4))
	h := HeuristicStack{Name: "full", Transpose: true, Aspect: true, Sort: true}
	healthy, faulty := 0.0, 0.0
	n := 8
	for i := 0; i < n; i++ {
		mix := s.Mix(256, 4)
		healthy += RunMix(16, 16, mix, h, 0, rng).Utilization
		faulty += RunMix(16, 16, mix, h, 40, rng).Utilization
	}
	healthy /= float64(n)
	faulty /= float64(n)
	if healthy < 0.85 {
		t.Errorf("healthy utilization %.2f below expectation", healthy)
	}
	// Fig. 10: even with 40 failed boards median utilization stays
	// above ~70%; it should also not exceed the healthy case.
	if faulty < 0.5 || faulty > healthy+0.05 {
		t.Errorf("faulty utilization %.2f outside (0.5, %.2f]", faulty, healthy)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{0.5, 0.7, 0.9, 1.0})
	if s.Min != 0.5 || s.Max != 1.0 {
		t.Errorf("min/max = %f/%f", s.Min, s.Max)
	}
	if s.Mean < 0.77 || s.Mean > 0.78 {
		t.Errorf("mean = %f", s.Mean)
	}
	if z := Summarize(nil); z.Mean != 0 {
		t.Error("empty summarize not zero")
	}
}

func TestFig8StacksComplete(t *testing.T) {
	stacks := Fig8Stacks()
	if len(stacks) != 6 {
		t.Fatalf("got %d stacks, want 6", len(stacks))
	}
	if !stacks[5].Sort || !stacks[5].Locality || !stacks[5].Transpose || !stacks[5].Aspect {
		t.Error("final stack must enable everything")
	}
}

// RunMix is deterministic under a fixed seed: the same mix, heuristics and
// failure RNG reproduce the identical result — the property the parallel
// sweeps in cmd/hxalloc and the scheduler's trace replays rely on.
func TestRunMixDeterministic(t *testing.T) {
	d := AlibabaLike()
	for _, h := range Fig8Stacks() {
		mix := NewSampler(d, 17).Mix(16*16, 4)
		mix2 := NewSampler(d, 17).Mix(16*16, 4)
		if !reflect.DeepEqual(mix, mix2) {
			t.Fatal("sampler mixes differ under one seed")
		}
		a := RunMix(16, 16, mix, h, 10, rand.New(rand.NewSource(99)))
		b := RunMix(16, 16, mix, h, 10, rand.New(rand.NewSource(99)))
		if a != b {
			t.Fatalf("%s: same seed produced %+v and %+v", h.Name, a, b)
		}
		c := RunMix(16, 16, mix, h, 10, rand.New(rand.NewSource(100)))
		if a == c && h.Name == Fig8Stacks()[0].Name {
			// Different failure draws should usually change the outcome;
			// only flag it for the first stack to avoid a flaky test.
			t.Logf("note: different failure seed reproduced the same result")
		}
	}
}

// RunMix fails exactly the requested number of distinct boards. With one
// single-board job per board every working board gets a job, so 40
// failures on a 16×16 grid leave 216 jobs placed under every seed.
func TestRunMixFailsDistinctBoards(t *testing.T) {
	mix := make([]int, 16*16)
	for i := range mix {
		mix[i] = 1
	}
	for seed := int64(0); seed < 100; seed++ {
		r := RunMix(16, 16, mix, HeuristicStack{}, 40, rand.New(rand.NewSource(seed)))
		if r.JobsPlaced != 216 {
			t.Fatalf("seed %d: %d working boards after 40 failures, want 216", seed, r.JobsPlaced)
		}
	}
	if r := RunMix(4, 4, mix[:16], HeuristicStack{}, 99, rand.New(rand.NewSource(1))); r.JobsPlaced != 0 {
		t.Fatalf("%d boards still working after failing more than the grid holds", r.JobsPlaced)
	}
}
