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

// journalRecords reads every record of the job journal in dir, in append
// order.
func journalRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	var recs [][]byte
	log, _, err := journal.Open(dir, journal.Options{NoSync: true}, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// mustKey is the content address of r.
func mustKey(t *testing.T, r Request) string {
	t.Helper()
	cn, err := Canonicalize(r)
	if err != nil {
		t.Fatal(err)
	}
	return cn.Key()
}

// A miss appends exactly one journal record, its result, and a journaled
// daemon restart loads it into the result cache: the request computed
// before the restart is served as a byte-identical hit afterwards,
// without recomputing.
func TestServeJournalRestartRewarmsCache(t *testing.T) {
	dir := t.TempDir()
	var computations atomic.Int64
	compute := func(cn *Canon) ([]byte, error) {
		computations.Add(1)
		return canonicalJSON(cn), nil
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

	recs := journalRecords(t, dir)
	if len(recs) != 1 || recs[0][0] != jrecResult {
		t.Fatalf("journal after one miss holds %d records, want exactly its result", len(recs))
	}
	key, body, err := journal.DecodeKeyed(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := mustKey(t, Request{Kind: KindAllreduce, Topo: "hx2mesh", Size: "tiny"}); key != want || !bytes.Equal(body, body1) {
		t.Fatalf("journaled result %.12s… %s, want %.12s… %s", key, body, want, body1)
	}

	// Restart: a fresh server over the same journal directory.
	s2 := mustNew(t, cfg)
	defer s2.Close()
	if s2.ReplayedResults != 1 {
		t.Fatalf("restart rewarmed %d results, want 1", s2.ReplayedResults)
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

// A journal written when accepted requests were journaled too holds 'A'
// records (the canonical request JSON) next to the results. It opens, its
// results load into the cache, and none of its accepts runs: the restart
// computes nothing until a request arrives, and an accepted request that
// never got its result is computed only when a client asks again.
func TestServeJournalSkipsAcceptRecords(t *testing.T) {
	dir := t.TempDir()
	o := journal.Options{NoSync: true}
	served := Request{Kind: KindAllreduce, Topo: "hx2mesh", Size: "tiny"}
	lost := Request{Kind: KindAllreduce, Topo: "hx2mesh", Size: "tiny", Bytes: 1 << 20}

	// The state such a daemon killed mid-computation left: two accepted
	// requests, one computed result.
	log, _, err := journal.Open(dir, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Request{served, lost} {
		cn, err := Canonicalize(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(append([]byte{jrecAccept}, canonicalJSON(cn)...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Append(journal.AppendKeyed(nil, jrecResult, mustKey(t, served), []byte(`{"served":true}`))); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var computed atomic.Int64
	s := mustNew(t, Config{
		Compute: func(cn *Canon) ([]byte, error) {
			computed.Add(1)
			return canonicalJSON(cn), nil
		},
		JournalDir: dir, JournalOptions: o,
	})
	if s.ReplayedResults != 1 {
		t.Fatalf("restart rewarmed %d results, want 1", s.ReplayedResults)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	code, body, cache := post(t, ts.URL, `{"kind":"allreduce","topo":"hx2mesh","size":"tiny"}`)
	if code != http.StatusOK || cache != "hit" || string(body) != `{"served":true}` {
		t.Fatalf("journaled request: status %d cache %q body %s, want the journaled hit", code, cache, body)
	}
	if n := computed.Load(); n != 0 {
		t.Fatalf("restart ran %d computations before the unserved request was asked again", n)
	}
	code, _, cache = post(t, ts.URL, `{"kind":"allreduce","topo":"hx2mesh","size":"tiny","bytes":1048576}`)
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("unserved request asked again: status %d cache %q, want a fresh miss", code, cache)
	}
	// Close would wait for any background work; there must be none.
	s.Close()
	if n := computed.Load(); n != 1 {
		t.Fatalf("%d computations, want only the one the retry asked for", n)
	}
	recs := journalRecords(t, dir)
	if len(recs) != 4 || recs[3][0] != jrecResult {
		t.Fatalf("journal holds %d records, want the 3 old ones plus one result", len(recs))
	}
	if key, _, _ := journal.DecodeKeyed(recs[3]); key != mustKey(t, lost) {
		t.Fatalf("appended result %.12s…, want the retried request's", key)
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
		Compute:  func(cn *Canon) ([]byte, error) { <-release; return canonicalJSON(cn), nil },
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
	journaled := make(map[string]bool)
	for _, rec := range journalRecords(t, dir) {
		key, _, err := journal.DecodeKeyed(rec)
		if rec[0] != jrecResult || err != nil {
			t.Fatalf("journal record of type %q (%v), want only results", rec[0], err)
		}
		journaled[key] = true
	}
	if len(journaled) != n {
		t.Fatalf("journal after Close holds %d results, want %d", len(journaled), n)
	}
	for i := 0; i < n; i++ {
		if key := <-keys; !journaled[key] {
			t.Fatalf("result of %.12s… missing from the journal", key)
		}
	}
}
