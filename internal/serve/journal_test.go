package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hammingmesh/internal/journal"
)

// A journaled daemon restart rewarms the result cache: a request computed
// before the restart is served as a cache hit afterwards, byte-identical,
// without recomputing.
func TestServeJournalRestartRewarmsCache(t *testing.T) {
	dir := t.TempDir()
	var computations atomic.Int64
	compute := func(cn *Canon) ([]byte, error) {
		computations.Add(1)
		return cn.CanonicalJSON(), nil
	}
	cfg := Config{Compute: compute, JournalDir: dir, JournalOptions: journal.Options{NoSync: true}}

	s1 := mustNew(t, cfg)
	ts1 := httptest.NewServer(s1)
	req := `{"kind":"allreduce","topo":"hx2mesh","size":"tiny"}`
	code, body1, cache1 := post(t, ts1.URL, req)
	if code != http.StatusOK || cache1 != "miss" {
		t.Fatalf("first request: status %d cache %q", code, cache1)
	}
	ts1.Close()
	s1.Close()

	// Restart: a fresh server over the same journal directory.
	s2 := mustNew(t, cfg)
	defer s2.Close()
	if s2.ReplayedResults != 1 || s2.ReplayedPending != 0 {
		t.Fatalf("restart replayed %d results / %d pending, want 1/0",
			s2.ReplayedResults, s2.ReplayedPending)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	code, body2, cache2 := post(t, ts2.URL, req)
	if code != http.StatusOK || cache2 != "hit" {
		t.Fatalf("post-restart request: status %d cache %q, want a rewarmed hit", code, cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("rewarmed body differs:\npre  %s\npost %s", body1, body2)
	}
	if n := computations.Load(); n != 1 {
		t.Fatalf("restart recomputed a journaled result: %d computations, want 1", n)
	}
}

// An accept record with no journaled result — the on-disk state a daemon
// killed mid-computation leaves — is re-run through the compute slot on
// restart: no accepted request is lost.
func TestServeJournalReplaysUnservedAccepts(t *testing.T) {
	dir := t.TempDir()
	o := journal.Options{NoSync: true}

	// Forge the crash artifact: two accepted requests, one computed result.
	cnServed, err := Canonicalize(Request{Kind: KindAllreduce, Topo: "hx2mesh", Size: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	cnLost, err := Canonicalize(Request{Kind: KindAllreduce, Topo: "hx2mesh", Size: "tiny", Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	jj, pending, results, err := openJobJournal(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || len(results) != 0 {
		t.Fatalf("fresh journal not empty: %d pending, %d results", len(pending), len(results))
	}
	if err := jj.accept(cnServed); err != nil {
		t.Fatal(err)
	}
	if err := jj.accept(cnLost); err != nil {
		t.Fatal(err)
	}
	if err := jj.result(cnServed.Key(), []byte(`{"served":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := jj.close(); err != nil {
		t.Fatal(err)
	}

	var computed atomic.Int64
	var lastKey atomic.Value
	s := mustNew(t, Config{
		Compute: func(cn *Canon) ([]byte, error) {
			computed.Add(1)
			lastKey.Store(cn.Key())
			return cn.CanonicalJSON(), nil
		},
		JournalDir: dir, JournalOptions: o,
	})
	defer s.Close()
	if s.ReplayedResults != 1 || s.ReplayedPending != 1 {
		t.Fatalf("restart replayed %d results / %d pending, want 1/1",
			s.ReplayedResults, s.ReplayedPending)
	}
	s.WaitReplay()
	if n := computed.Load(); n != 1 {
		t.Fatalf("replay ran %d computations, want exactly the lost request", n)
	}
	if got := lastKey.Load().(string); got != cnLost.Key() {
		t.Fatalf("replay computed key %.12s…, want the unserved request %.12s…", got, cnLost.Key())
	}

	// Both requests now serve from the cache — the journaled result and the
	// replayed one.
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, req := range []string{
		`{"kind":"allreduce","topo":"hx2mesh","size":"tiny"}`,
		`{"kind":"allreduce","topo":"hx2mesh","size":"tiny","bytes":1048576}`,
	} {
		code, _, cache := post(t, ts.URL, req)
		if code != http.StatusOK || cache != "hit" {
			t.Fatalf("request %s: status %d cache %q, want hit", req, code, cache)
		}
	}
	if n := computed.Load(); n != 1 {
		t.Fatalf("cache misses after replay: %d computations", n)
	}

	// A third restart over the now-complete journal has nothing pending.
	s.Close()
	s2 := mustNew(t, Config{Compute: func(cn *Canon) ([]byte, error) {
		t.Error("complete journal still recomputed")
		return cn.CanonicalJSON(), nil
	}, JournalDir: dir, JournalOptions: o})
	defer s2.Close()
	if s2.ReplayedResults != 2 || s2.ReplayedPending != 0 {
		t.Fatalf("final restart replayed %d results / %d pending, want 2/0",
			s2.ReplayedResults, s2.ReplayedPending)
	}
}

// Close drains: requests admitted before it — one computing, the rest
// waiting for the compute slot — all complete with 200, and each result
// is in the journal before Close seals it.
func TestServeCloseDrainsAdmittedRequests(t *testing.T) {
	dir := t.TempDir()
	o := journal.Options{NoSync: true}
	release := make(chan struct{})
	s := mustNew(t, Config{
		Compute:  func(cn *Canon) ([]byte, error) { <-release; return cn.CanonicalJSON(), nil },
		QueueLen: 2, JournalDir: dir, JournalOptions: o,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 3 // one computing plus QueueLen waiting
	keys := make(chan string, n)
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			body := fmt.Sprintf(`{"kind":"allreduce","topo":"hx2mesh","size":"tiny","bytes":%d}`, 1024+i)
			resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				codes <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			keys <- resp.Header.Get("X-Hxd-Key")
			codes <- resp.StatusCode
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.admit) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", len(s.admit), n)
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while admitted requests were still computing")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain")
	}
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("admitted request got status %d, want 200", code)
		}
	}

	// The journal was sealed by Close, so every result found in it was
	// appended before Close returned.
	_, pending, results, err := openJobJournal(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || len(results) != n {
		t.Fatalf("journal after Close: %d pending, %d results, want 0 and %d", len(pending), len(results), n)
	}
	for i := 0; i < n; i++ {
		if key := <-keys; results[key] == nil {
			t.Fatalf("result of %.12s… missing from the journal", key)
		}
	}
}
