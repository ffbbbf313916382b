package serve

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/sched"
)

// canonicalJSON is the byte form Key hashes: one JSON object, keys in
// sorted order, inert fields zeroed, defaults explicit.
func canonicalJSON(cn *Canon) []byte {
	b, err := json.Marshal(cn)
	if err != nil {
		panic(err) // fixed struct, cannot fail
	}
	return b
}

// keyOf decodes raw JSON the way the handler does (strict) and returns the
// content address.
func keyOf(t *testing.T, js string) string {
	t.Helper()
	var r Request
	dec := json.NewDecoder(strings.NewReader(js))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("decode %s: %v", js, err)
	}
	cn, err := Canonicalize(r)
	if err != nil {
		t.Fatalf("canonicalize %s: %v", js, err)
	}
	return cn.Key()
}

// equalRequests are pairs of semantically equal requests — reordered JSON
// keys, explicit-vs-default values, zero-valued or kind-inert options,
// negative zeros — that must share one content address.
var equalRequests = []struct{ name, a, b string }{
	{"reordered+explicit-defaults",
		`{"kind":"alltoall_flow"}`,
		`{"size":"tiny","shifts":8,"topo":"hx2mesh","seed":1,"kind":"alltoall_flow"}`},
	{"inert-worker-shard-count",
		`{"kind":"alltoall_packet","bytes":65536}`,
		`{"kind":"alltoall_packet","bytes":65536,"workers":8,"shards":4}`},
	{"inert-for-kind (bytes/credit on the flow path)",
		`{"kind":"alltoall_flow","seed":3}`,
		`{"kind":"alltoall_flow","seed":3,"bytes":123,"credit":true}`},
	{"inert-fail-seed-without-faults",
		`{"kind":"permutation"}`,
		`{"kind":"permutation","fail_seed":99}`},
	{"inert-seed-for-allreduce",
		`{"kind":"allreduce"}`,
		`{"kind":"allreduce","seed":42,"bytes":262144}`},
	{"sched-defaults",
		`{"kind":"sched","topo":"hx2mesh"}`,
		`{"kind":"sched","policies":["firstfit"],"mtbfs":[0,40],"ckpts_h":[2],"jobs":120,"horizon_h":40,"trials":2}`},
	{"sched-explicit-default-upper-penalty",
		`{"kind":"sched"}`,
		`{"kind":"sched","upper_penalty":1}`},
	{"sched-explicit-off-v3-knobs",
		`{"kind":"sched"}`,
		`{"kind":"sched","interference":false,"elastic":false,"preempt":false}`},
	{"zero-seed-is-default",
		`{"kind":"resilience","seed":0,"fail_seed":0}`,
		`{"kind":"resilience","seed":1,"fail_seed":1,"fail_links":0.2,"steps":5,"trials":3,"shifts":4}`},
	{"negative-zero-fail-links",
		`{"kind":"alltoall_flow","fail_links":-0}`,
		`{"kind":"alltoall_flow"}`},
	{"negative-zero-mtbf",
		`{"kind":"sched","mtbfs":[-0,40]}`,
		`{"kind":"sched"}`},
	{"negative-zero-checkpoint",
		`{"kind":"sched","ckpts_h":[-0.0]}`,
		`{"kind":"sched","ckpts_h":[0]}`},
	{"negative-zero-upper-penalty",
		`{"kind":"sched","upper_penalty":-0}`,
		`{"kind":"sched","upper_penalty":0}`},
}

func TestCanonEqualSemanticsSameKey(t *testing.T) {
	for _, tc := range equalRequests {
		if ka, kb := keyOf(t, tc.a), keyOf(t, tc.b); ka != kb {
			t.Errorf("%s: keys differ\n  %s -> %s\n  %s -> %s", tc.name, tc.a, ka, tc.b, kb)
		}
	}
}

// distinctRequests differ from the first one (and from each other) in one
// meaningful field each.
var distinctRequests = []string{
	`{"kind":"alltoall_packet","topo":"hx2mesh","size":"tiny"}`,
	`{"kind":"alltoall_flow","topo":"hx2mesh","size":"tiny"}`,
	`{"kind":"alltoall_packet","topo":"torus","size":"tiny"}`,
	`{"kind":"alltoall_packet","topo":"hx2mesh","size":"small"}`,
	`{"kind":"alltoall_packet","topo":"hx2mesh","size":"tiny","bytes":65536}`,
	`{"kind":"alltoall_packet","topo":"hx2mesh","size":"tiny","shifts":2}`,
	`{"kind":"alltoall_packet","topo":"hx2mesh","size":"tiny","seed":2}`,
	`{"kind":"alltoall_packet","topo":"hx2mesh","size":"tiny","credit":true}`,
	`{"kind":"alltoall_packet","topo":"hx2mesh","size":"tiny","fail_links":0.05}`,
	`{"kind":"alltoall_packet","topo":"hx2mesh","size":"tiny","fail_links":0.05,"fail_seed":2}`,
	`{"kind":"sched"}`,
	`{"kind":"sched","interference":true}`,
	`{"kind":"sched","elastic":true}`,
	`{"kind":"sched","preempt":true}`,
	`{"kind":"sched","upper_penalty":0}`,
	`{"kind":"sched","upper_penalty":0.5}`,
}

// Any meaningful field change must change the content address.
func TestCanonMeaningfulChangeNewKey(t *testing.T) {
	seen := map[string]string{}
	for _, m := range distinctRequests {
		k := keyOf(t, m)
		if prev, dup := seen[k]; dup {
			t.Errorf("distinct requests share a key:\n  %s\n  %s", prev, m)
		}
		seen[k] = m
	}
}

// Property check over seeded random requests: adding inert noise never
// moves the content address; flipping one meaningful field always does.
// Canonicalization must also be idempotent — re-canonicalizing a canonical
// form is a fixed point.
func TestCanonProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := Kinds()
	topos := []string{"hx2mesh", "hx4mesh", "hyperx", "torus", "fattree", "dragonfly"}
	sizes := []string{"", "tiny", "small", "large"}
	for i := 0; i < 300; i++ {
		r := Request{
			Kind:   kinds[rng.Intn(len(kinds))],
			Topo:   topos[rng.Intn(len(topos))],
			Size:   sizes[rng.Intn(len(sizes))],
			Bytes:  int64(rng.Intn(3)) * 4096,
			Shifts: rng.Intn(4),
			Perms:  rng.Intn(3),
			Seed:   int64(rng.Intn(4)),
			Credit: rng.Intn(2) == 0,
			Trials: rng.Intn(3),
		}
		if r.Kind == KindSched || rng.Intn(4) == 0 {
			r.Topo = "hx2mesh" // keep sched/board faults valid
		}
		r.Interference = rng.Intn(2) == 0
		r.Elastic = rng.Intn(2) == 0
		r.Preempt = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			up := float64(rng.Intn(3)) // 0 is meaningful: explicitly free upper layer
			r.UpperPenalty = &up
		}
		if rng.Intn(3) == 0 {
			r.FailLinks = 0.05 * float64(1+rng.Intn(3))
			r.FailSeed = int64(rng.Intn(3))
		}
		cn, err := Canonicalize(r)
		if err != nil {
			t.Fatalf("canonicalize %+v: %v", r, err)
		}

		// Inert noise: worker/shard counts never matter.
		noisy := r
		noisy.Workers = 1 + rng.Intn(16)
		noisy.Shards = 1 + rng.Intn(8)
		cnNoisy, err := Canonicalize(noisy)
		if err != nil {
			t.Fatalf("canonicalize noisy %+v: %v", noisy, err)
		}
		if cn.Key() != cnNoisy.Key() {
			t.Fatalf("inert noise moved the key:\n%+v\n%+v", r, noisy)
		}

		// One meaningful change: the seed on seeded kinds, bytes on
		// byte-sized kinds, the horizon on sched.
		mut := r
		switch r.Kind {
		case KindAllreduce:
			mut.Bytes = cn.Bytes + 4096
		case KindSched:
			mut.HorizonH = cn.HorizonH + 1
		default:
			mut.Seed = cn.Seed + 1
		}
		cnMut, err := Canonicalize(mut)
		if err != nil {
			t.Fatalf("canonicalize mutant %+v: %v", mut, err)
		}
		if cn.Key() == cnMut.Key() {
			t.Fatalf("meaningful change kept the key: %+v vs %+v", r, mut)
		}

		// Idempotence: canonical values survive a second pass unchanged.
		again, err := Canonicalize(requestOf(cn))
		if err != nil {
			t.Fatalf("re-canonicalize %+v: %v", cn, err)
		}
		if again.Key() != cn.Key() {
			t.Fatalf("canonicalization not idempotent for %+v", r)
		}
	}
}

// requestOf rebuilds the request a canonical form describes.
func requestOf(cn *Canon) Request {
	up := cn.UpperPenalty
	return Request{
		Kind: cn.Kind, Topo: cn.Topo, Size: cn.Size, Bytes: cn.Bytes,
		Shifts: cn.Shifts, Perms: cn.Perms, Seed: cn.Seed, Credit: cn.Credit,
		FailLinks: cn.FailLinks, FailBoards: cn.FailBoards, FailSeed: cn.FailSeed,
		Trials: cn.Trials, Steps: cn.Steps, Jobs: cn.Jobs, HorizonH: cn.HorizonH,
		MTBFs: cn.MTBFs, CkptsH: cn.CkptsH, Policies: cn.Policies, Reserve: cn.Reserve,
		Interference: cn.Interference, Elastic: cn.Elastic, Preempt: cn.Preempt,
		UpperPenalty: &up,
	}
}

// Invalid requests are rejected with an error, never hashed.
func TestCanonRejects(t *testing.T) {
	bad := []Request{
		{},
		{Kind: "nosuchkind"},
		{Kind: KindAlltoallFlow, Topo: "nosuchtopo"},
		{Kind: KindAlltoallFlow, Size: "medium"},
		{Kind: KindAlltoallFlow, FailLinks: 1.5},
		{Kind: KindAlltoallFlow, Shifts: -1},
		{Kind: KindSched, Topo: "fattree"},
		{Kind: KindSched, Policies: []string{"nosuchpolicy"}},
		{Kind: KindSched, MTBFs: []float64{-1}},
		{Kind: KindSched, UpperPenalty: fp(-0.5)},
		{Kind: KindAlltoallPacket, FailBoards: 2, Topo: "dragonfly"},
	}
	for _, r := range bad {
		if _, err := Canonicalize(r); err == nil {
			t.Errorf("Canonicalize(%+v) accepted, want error", r)
		}
	}
}

func fp(v float64) *float64 { return &v }

// The upper_penalty canonicalization fix: an explicit 0 ("upper-layer
// crossings are free") is a meaningful setting, distinct from an omitted
// field (which means the model default of 1). Before the pointer field, 0
// and omitted marshalled identically and the off setting silently became
// the default.
func TestCanonUpperPenaltyZeroExplicit(t *testing.T) {
	omitted := keyOf(t, `{"kind":"sched"}`)
	explicitDefault := keyOf(t, `{"kind":"sched","upper_penalty":1}`)
	off := keyOf(t, `{"kind":"sched","upper_penalty":0}`)
	if omitted != explicitDefault {
		t.Error("upper_penalty:1 differs from omitted; explicit defaults must canonicalize away")
	}
	if off == omitted {
		t.Error("upper_penalty:0 canonicalizes like omitted; the off setting is lost")
	}
	cn, err := Canonicalize(Request{Kind: KindSched, UpperPenalty: fp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if cn.UpperPenalty != 0 {
		t.Fatalf("canonical upper_penalty = %v, want explicit 0", cn.UpperPenalty)
	}
	if !strings.Contains(string(canonicalJSON(cn)), `"upper_penalty":0`) {
		t.Fatalf("canonical JSON hides the explicit 0: %s", canonicalJSON(cn))
	}
}

// fieldReaders lists, for every Request field, the kinds whose result
// reads it, mirroring Computer.Compute: the content address must move
// exactly when one of these fields changes. A field missing here fails
// TestCanonicalizeKeyPerKind until it is classified.
var fieldReaders = func() map[string][]string {
	all := Kinds()
	network := []string{KindAlltoallFlow, KindAlltoallPacket, KindPermutation, KindAllreduce, KindResilience}
	schedOnly := []string{KindSched}
	return map[string][]string{
		"Kind":       all,
		"Topo":       all,
		"Size":       all,
		"Bytes":      {KindAlltoallPacket, KindPermutation, KindAllreduce, KindResilience},
		"Shifts":     {KindAlltoallFlow, KindAlltoallPacket, KindResilience},
		"Perms":      {KindPermutation},
		"Seed":       {KindAlltoallFlow, KindAlltoallPacket, KindPermutation, KindResilience, KindSched},
		"Credit":     {KindAlltoallPacket, KindPermutation, KindResilience},
		"Shards":     nil, // results are shard-count invariant
		"Workers":    nil, // results are worker-count invariant
		"FailLinks":  network,
		"FailBoards": network,
		// Resilience samples faults on every request; the other network
		// kinds read the sampler seed only on a faulted request (see
		// faultedReaders).
		"FailSeed":     {KindResilience},
		"Trials":       {KindResilience, KindSched},
		"Steps":        {KindResilience},
		"Jobs":         schedOnly,
		"HorizonH":     schedOnly,
		"MTBFs":        schedOnly,
		"CkptsH":       schedOnly,
		"Policies":     schedOnly,
		"Reserve":      schedOnly,
		"Interference": schedOnly,
		"Elastic":      schedOnly,
		"Preempt":      schedOnly,
		"UpperPenalty": schedOnly,
	}
}()

// faultedReaders adds the fields a faulted request (fail_links > 0)
// reads on top of fieldReaders.
var faultedReaders = map[string][]string{
	"FailSeed": {KindAlltoallFlow, KindAlltoallPacket, KindPermutation, KindAllreduce},
}

// For each kind, on a plain and on a faulted request, every Request field
// set to a second valid value moves the content address exactly when the
// kind reads that field.
func TestCanonicalizeKeyPerKind(t *testing.T) {
	kinds := Kinds()
	typ := reflect.TypeFor[Request]()
	for ki, kind := range kinds {
		for _, faulted := range []bool{false, true} {
			base := Request{Kind: kind}
			if faulted {
				base.FailLinks = 0.05
			}
			cn, err := Canonicalize(base)
			if err != nil {
				t.Fatal(err)
			}
			baseKey := cn.Key()
			for i := 0; i < typ.NumField(); i++ {
				name := typ.Field(i).Name
				readers, ok := fieldReaders[name]
				if !ok {
					t.Fatalf("Request.%s is not classified in fieldReaders", name)
				}
				if faulted {
					readers = append(slices.Clone(readers), faultedReaders[name]...)
				}
				r := base
				f := reflect.ValueOf(&r).Elem().Field(i)
				switch name {
				case "Kind":
					r.Kind = kinds[(ki+1)%len(kinds)]
				case "Topo":
					r.Topo = "hx4mesh"
				case "Size":
					r.Size = string(core.Small)
				case "Policies":
					r.Policies = []string{string(sched.BestFit)}
				default:
					switch f.Kind() {
					case reflect.Int, reflect.Int64:
						f.SetInt(7)
					case reflect.Float64:
						f.SetFloat(0.07)
					case reflect.Bool:
						f.SetBool(true)
					case reflect.Slice:
						f.Set(reflect.ValueOf([]float64{7}))
					case reflect.Pointer:
						f.Set(reflect.ValueOf(fp(7)))
					default:
						t.Fatalf("Request.%s: no second value for %s", name, f.Type())
					}
				}
				if reflect.DeepEqual(r, base) {
					t.Fatalf("Request.%s: the second value equals the base", name)
				}
				mut, err := Canonicalize(r)
				if err != nil {
					t.Fatalf("%s: Request.%s second value rejected: %v", kind, name, err)
				}
				if moved, want := mut.Key() != baseKey, slices.Contains(readers, kind); moved != want {
					t.Errorf("%s (faulted %v): changing Request.%s moved the key: %v, want %v", kind, faulted, name, moved, want)
				}
			}
		}
	}
}
