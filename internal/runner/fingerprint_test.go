package runner

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/sched"
)

// leafWalker visits every exported leaf under a value: bools, numbers and
// strings, through structs, non-nil pointers and every slice element.
// Paths listed in skip are not entered; the walker records which of them
// it met, so a stale entry shows.
type leafWalker struct {
	t    *testing.T
	skip map[string]string // path -> why the key leaves it out
	seen map[string]bool
}

func (w *leafWalker) walk(v reflect.Value, path string, leaf func(path string, v reflect.Value)) {
	if _, ok := w.skip[path]; ok {
		w.seen[path] = true
		return
	}
	switch {
	case v.Kind() == reflect.Bool, v.CanInt(), v.CanUint(), v.CanFloat(), v.Kind() == reflect.String:
		leaf(path, v)
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			w.t.Fatalf("%s is nil: set it in the base value so its fields are checked", path)
		}
		w.walk(v.Elem(), path, leaf)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				w.walk(v.Field(i), path+"."+f.Name, leaf)
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			w.t.Fatalf("%s is empty: give it an element so its leaves are checked", path)
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), leaf)
		}
	default:
		w.t.Fatalf("%s: no second value for a %s leaf", path, v.Kind())
	}
}

// setSecond sets a leaf to a second valid value.
func setSecond(v reflect.Value) {
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	case v.CanFloat():
		v.SetFloat(v.Float() + 0.5)
	default: // a string
		if p, ok := v.Interface().(sched.Policy); ok {
			i := slices.Index(sched.Policies(), p)
			v.Set(reflect.ValueOf(sched.Policies()[(i+1)%len(sched.Policies())]))
			return
		}
		v.SetString(v.String() + "x")
	}
}

// checkEveryLeafMoves builds a fresh value with build, and for each leaf
// under it sets that one leaf to a second value on a fresh build and
// asserts that key changes. It returns the number of leaves checked.
func checkEveryLeafMoves[T any](t *testing.T, build func() *T, key func(*T) string, skip map[string]string) int {
	t.Helper()
	w := &leafWalker{t: t, skip: skip, seen: map[string]bool{}}
	base := key(build())
	var paths []string
	w.walk(reflect.ValueOf(build()), "", func(path string, _ reflect.Value) { paths = append(paths, path) })
	for _, want := range paths {
		v := build()
		w.walk(reflect.ValueOf(v), "", func(path string, leaf reflect.Value) {
			if path == want {
				setSecond(leaf)
			}
		})
		if key(v) == base {
			t.Errorf("%s: a second value leaves the key unchanged; hash the field or list it as excluded with its reason", want)
		}
	}
	for path := range skip {
		if !w.seen[path] {
			t.Errorf("excluded path %s does not exist", path)
		}
	}
	return len(paths)
}

// Every field SchedSweepConfig.Fingerprint hashes changes the fingerprint:
// each exported leaf of a config with every axis non-empty, both models
// set and a one-job fixed trace, set to a second value, gives a new key.
func TestSchedSweepFingerprintCoversEveryField(t *testing.T) {
	c, err := core.NewByName("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *SchedSweepConfig {
		cfg := DefaultSchedSpec().Config(c)
		cfg.Base.Interference = &sched.Interference{BoardA: 2, BoardB: 2, GroupBoards: 4, Taper: 0.5}
		cfg.Reservations, cfg.Interferences = []bool{false}, []bool{false}
		cfg.FixedTrace = []sched.TraceJob{{ID: 1, Arrival: 0.5, Boards: 2, Service: 1, CommFrac: 0.3, MinBoards: 1, Priority: 1}}
		return &cfg
	}
	n := checkEveryLeafMoves(t, build, func(cfg *SchedSweepConfig) string { return cfg.Fingerprint(c) },
		map[string]string{".Base.Trace": "recording never changes results"})
	if n < 40 {
		t.Fatalf("walked %d leaves; the walker missed fields", n)
	}
	distinctClusterKeys(t, []string{"hx2mesh", "hx4mesh", "hyperx"}, func(c *core.Cluster) string {
		return DefaultSchedSpec().Config(c).Fingerprint(c)
	})
}

// distinctClusterKeys checks that key tells the named registry clusters
// apart at every size up to small.
func distinctClusterKeys(t *testing.T, names []string, key func(*core.Cluster) string) {
	t.Helper()
	seen := map[string]string{}
	for _, name := range names {
		for _, size := range []core.ClusterSize{core.Tiny, core.Small} {
			c, err := core.NewByName(name, size)
			if err != nil {
				t.Fatal(err)
			}
			id := name + "/" + string(size)
			if prev, dup := seen[key(c)]; dup {
				t.Errorf("clusters %s and %s share a key", prev, id)
			}
			seen[key(c)] = id
		}
	}
}

// resilienceArgs are ResilienceFingerprint's positional arguments after
// the cluster.
type resilienceArgs struct {
	Net    netsim.Config
	Bytes  int64
	Fracs  []float64
	Trials int
	Shifts int
	Seed   int64
	Boards int
}

// Every netsim.Config leaf and every positional argument of
// ResilienceFingerprint changes the fingerprint, except the fields that
// cannot change a result.
func TestResilienceFingerprintCoversEveryArgument(t *testing.T) {
	c, err := core.NewByName("hx2mesh", core.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	key := func(c *core.Cluster, a *resilienceArgs) string {
		return ResilienceFingerprint(c, a.Net, a.Bytes, a.Fracs, a.Trials, a.Shifts, a.Seed, a.Boards)
	}
	build := func() *resilienceArgs {
		return &resilienceArgs{Net: netsim.DefaultConfig(), Bytes: 32 << 10, Fracs: []float64{0, 0.1}, Trials: 2, Shifts: 2, Seed: 1, Boards: 1}
	}
	if got, want := reflect.TypeOf(ResilienceFingerprint).NumIn(), 1+reflect.TypeOf(resilienceArgs{}).NumField(); got != want {
		t.Fatalf("ResilienceFingerprint takes %d arguments, the test covers %d", got, want)
	}
	n := checkEveryLeafMoves(t, build, func(a *resilienceArgs) string { return key(c, a) }, map[string]string{
		".Net.Shards":  "results are shard-count invariant",
		".Net.Metrics": "instrumentation never changes results",
		".Net.Trace":   "recording never changes results",
	})
	if n < 15 {
		t.Fatalf("walked %d leaves; the walker missed fields", n)
	}
	distinctClusterKeys(t, core.TopologyNames(), func(c *core.Cluster) string { return key(c, build()) })
}
