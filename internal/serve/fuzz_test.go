package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzCanonicalize decodes arbitrary bytes the way the handler does
// (strict JSON into a Request) and checks every request Canonicalize
// accepts: it does not panic, the request rebuilt from its canonical form
// canonicalizes to the same JSON and key, and the canonical JSON holds no
// negative zero. Seeded from the canonicalization tests' requests.
func FuzzCanonicalize(f *testing.F) {
	for _, tc := range equalRequests {
		f.Add([]byte(tc.a))
		f.Add([]byte(tc.b))
	}
	for _, js := range distinctRequests {
		f.Add([]byte(js))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&r) != nil {
			return
		}
		cn, err := Canonicalize(r)
		if err != nil {
			return
		}
		js := cn.CanonicalJSON()
		again, err := Canonicalize(requestOf(cn))
		if err != nil {
			t.Fatalf("canonical form %s refused: %v", js, err)
		}
		if js2 := again.CanonicalJSON(); !bytes.Equal(js, js2) || again.Key() != cn.Key() {
			t.Fatalf("not idempotent:\n  %s\n  %s", js, js2)
		}
		var v any
		if err := json.Unmarshal(js, &v); err != nil {
			t.Fatalf("canonical JSON %s does not decode: %v", js, err)
		}
		if hasNegZero(v) {
			t.Fatalf("canonical JSON holds a negative zero: %s", js)
		}
	})
}

// hasNegZero reports whether a decoded JSON value holds a -0 number.
func hasNegZero(v any) bool {
	switch x := v.(type) {
	case float64:
		return x == 0 && math.Signbit(x)
	case []any:
		for _, e := range x {
			if hasNegZero(e) {
				return true
			}
		}
	case map[string]any:
		for _, e := range x {
			if hasNegZero(e) {
				return true
			}
		}
	}
	return false
}
