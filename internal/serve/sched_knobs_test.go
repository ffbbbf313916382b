package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"hammingmesh/internal/runner"
)

// The scheduler-v3 knobs reach the sweep: flipping interference, elastic,
// preempt or upper_penalty produces a distinct canonical request whose
// computed body reflects the knob, and the off request reproduces the
// pre-knob body exactly (the fields default to inert).
func TestComputeSchedV3Knobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cp := NewComputer(runner.New(0))
	compute := func(r Request) ([]byte, *Canon) {
		t.Helper()
		cn, err := Canonicalize(r)
		if err != nil {
			t.Fatal(err)
		}
		body, err := cp.Compute(cn)
		if err != nil {
			t.Fatal(err)
		}
		return body, cn
	}
	base := Request{Kind: KindSched, Jobs: 40, HorizonH: 20, Trials: 1,
		MTBFs: []float64{0}, CkptsH: []float64{2}, Policies: []string{"bestfit"}}
	off, cnOff := compute(base)

	on := base
	on.Interference = true
	on.Elastic = true
	on.Preempt = true
	body, cnOn := compute(on)
	if cnOff.Key() == cnOn.Key() {
		t.Fatal("v3 knobs did not change the content address")
	}
	var res SchedResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("body is not a SchedResult: %v", err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no sweep points")
	}
	for _, pt := range res.Points {
		if !pt.Interference || !pt.Elastic || !pt.Preempt {
			t.Fatalf("knobs lost on the way to the sweep: %+v", pt)
		}
	}

	// upper_penalty: explicit 0 is a real setting, so it must both hash
	// and compute differently from the default on a comm-heavy trace.
	free := base
	free.UpperPenalty = fp(0)
	freeBody, cnFree := compute(free)
	if cnFree.Key() == cnOff.Key() {
		t.Fatal("upper_penalty:0 shares the default's content address")
	}
	var resOff, resFree SchedResult
	if err := json.Unmarshal(off, &resOff); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(freeBody, &resFree); err != nil {
		t.Fatal(err)
	}
	if resOff.Points[0].SlowP99 < resFree.Points[0].SlowP99 {
		t.Fatalf("free upper layer slowed jobs down: default SlowP99 %v < free %v",
			resOff.Points[0].SlowP99, resFree.Points[0].SlowP99)
	}
}

// A sched body does not depend on what the process computed before it:
// shape shares are memoized process-wide, so each request's model reads
// shapes that earlier requests (on any Computer) solved. Three bodies,
// pinned by SHA-256 as computed with a memo per model, must match their
// pins on two Computers that compute them in opposite orders.
func TestComputeSchedIndependentOfHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	reqs := []struct {
		r   Request
		pin string
	}{
		{Request{Kind: KindSched, Topo: "hx2mesh", Size: "small", Seed: 1},
			"f6dd9a71bc2992cc2a852f5acf43875f650559119767da379dbf316e6ee2d7fa"},
		{Request{Kind: KindSched, Topo: "hx2mesh", Size: "small", Seed: 2},
			"2aef9cbcbd820514e0b1e9963c65f2d030b00e78485d3a7b001ba7ea6d999749"},
		{Request{Kind: KindSched, Topo: "hx4mesh", Size: "small", Seed: 1},
			"c332007e3fb23246a3618cd1ea8c1f677d60e5fcf31d225d1b8d952e66d0571c"},
	}
	for c, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		cp := NewComputer(runner.New(2))
		for _, i := range order {
			cn, err := Canonicalize(reqs[i].r)
			if err != nil {
				t.Fatal(err)
			}
			body, err := cp.Compute(cn)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != reqs[i].pin {
				t.Fatalf("computer %d, %+v: body SHA-256 %x, pinned %s\n%s", c, reqs[i].r, sum, reqs[i].pin, body)
			}
		}
	}
}
