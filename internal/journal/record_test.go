package journal

import (
	"bytes"
	"testing"
)

// TestKeyedRecordGoldenBytes pins the keyed-record layout byte for byte:
// checkpoints and hxd job journals written before the codec moved here
// must still replay.
func TestKeyedRecordGoldenBytes(t *testing.T) {
	got := AppendKeyed(nil, 'R', "key", []byte(`{"v":1}`))
	want := []byte{'R', 3, 0, 0, 0, 'k', 'e', 'y', '{', '"', 'v', '"', ':', '1', '}'}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendKeyed = %q, want %q", got, want)
	}
	key, val, err := DecodeKeyed(want)
	if err != nil || key != "key" || string(val) != `{"v":1}` {
		t.Fatalf("DecodeKeyed = %q, %q, %v", key, val, err)
	}
	// The value is a copy: replay callbacks may not retain the journal's
	// read buffer.
	want[len(want)-2] = '2'
	if string(val) != `{"v":1}` {
		t.Fatalf("DecodeKeyed value aliases the record: %q", val)
	}

	// An empty key and value is the 5-byte minimum.
	if got := AppendKeyed([]byte{0xff}, 2, "", nil); !bytes.Equal(got, []byte{0xff, 2, 0, 0, 0, 0}) {
		t.Fatalf("AppendKeyed onto a prefix = %v", got)
	}
	for _, bad := range [][]byte{{}, {'R', 1, 0, 0}, {'R', 4, 0, 0, 0, 'k', 'e', 'y'}} {
		if _, _, err := DecodeKeyed(bad); err == nil {
			t.Errorf("DecodeKeyed(%v) accepted a malformed record", bad)
		}
	}
}

// ExitCrashPlan arms nothing for an empty spec, parses like
// ParseCrashPlan otherwise, and installs a Fire hook.
func TestExitCrashPlan(t *testing.T) {
	if p, err := ExitCrashPlan(""); p != nil || err != nil {
		t.Fatalf("ExitCrashPlan(\"\") = %+v, %v; want nil, nil", p, err)
	}
	p, err := ExitCrashPlan("before-sync:2")
	if err != nil || p.Point != CrashBeforeSync || p.AfterAppends != 2 || p.Fire == nil {
		t.Fatalf("ExitCrashPlan = %+v, %v", p, err)
	}
	if _, err := ExitCrashPlan("nosuch:1"); err == nil {
		t.Fatal("ExitCrashPlan accepted an unknown point")
	}
}
