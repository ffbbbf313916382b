package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hammingmesh/internal/obs"
)

// collect re-opens the journal with a recording replay callback and
// returns the replayed records plus the recovery stats.
func collect(t *testing.T, dir string, o Options) (*Log, [][]byte, Stats) {
	t.Helper()
	var recs [][]byte
	l, st, err := Open(dir, o, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, recs, st
}

func rec(i int) []byte { return []byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", i%97))) }

// Round trip: append N records, close, reopen, replay identically.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs, st := collect(t, dir, Options{NoSync: true})
	if len(recs) != 0 || st.TornTail {
		t.Fatalf("fresh journal replayed %d records, torn=%v", len(recs), st.TornTail)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.Append([]byte("late")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}

	l2, recs, st := collect(t, dir, Options{NoSync: true})
	defer l2.Close()
	if len(recs) != n || st.Records != n || st.TornTail {
		t.Fatalf("replayed %d records (stats %+v), want %d clean", len(recs), st, n)
	}
	for i, r := range recs {
		if !bytes.Equal(r, rec(i)) {
			t.Fatalf("record %d = %q, want %q", i, r, rec(i))
		}
	}
}

// A directory holding a second segment, left by a journal that rotated,
// is refused with an error naming that file, and Open changes nothing in
// it.
func TestSecondSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{NoSync: true})
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	first := filepath.Join(dir, fileName)
	want, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, "jseg-00000001.wal")
	if err := os.WriteFile(second, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{NoSync: true}, nil); err == nil || !strings.Contains(err.Error(), second) {
		t.Fatalf("Open over a second segment: %v, want an error naming %s", err, second)
	}
	for _, path := range []string{first, second} {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("refused Open changed %s (err %v)", path, err)
		}
	}
}

// Every injected crash point recovers to exactly the records appended
// before the crash, and the journal accepts appends again afterwards.
func TestCrashPointsRecover(t *testing.T) {
	for _, point := range CrashPoints() {
		for _, after := range []int{0, 1, 5} {
			t.Run(fmt.Sprintf("%s-after%d", point, after), func(t *testing.T) {
				dir := t.TempDir()
				o := Options{NoSync: true,
					Crash: &CrashPlan{Point: point, AfterAppends: after}}
				l, _, _ := collect(t, dir, o)
				survived := 0
				var crashed bool
				for i := 0; i < 40; i++ {
					err := l.Append(rec(i))
					if err == ErrCrashInjected {
						crashed = true
						break
					}
					if err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
					survived++
				}
				if !crashed {
					t.Fatalf("crash point %s never fired", point)
				}
				// No Close: the "process" died. Recover. A crash before
				// the sync leaves the full frame on disk, so that one
				// extra record may legitimately replay — the caller saw
				// an error, but the record is intact, which is exactly
				// why checkpoint consumers key records idempotently.
				expected := survived
				if point == CrashBeforeSync {
					expected++
				}
				l2, recs, _ := collect(t, dir, Options{NoSync: true})
				if len(recs) != expected {
					t.Fatalf("recovered %d records, want %d (%d appended before the crash at %s)",
						len(recs), expected, survived, point)
				}
				for i, r := range recs {
					if !bytes.Equal(r, rec(i)) {
						t.Fatalf("record %d corrupted across crash at %s", i, point)
					}
				}
				// Re-append after recovery round-trips.
				if err := l2.Append([]byte("post-crash")); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				l2.Close()
				_, recs, _ = collect(t, dir, Options{NoSync: true})
				if len(recs) != expected+1 || !bytes.Equal(recs[expected], []byte("post-crash")) {
					t.Fatalf("post-recovery append lost: %d records", len(recs))
				}
			})
		}
	}
}

// The poisoned writer refuses appends after an injected crash, like a
// dead process would.
func TestCrashPoisonsWriter(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{NoSync: true,
		Crash: &CrashPlan{Point: CrashTornWrite, AfterAppends: 1}})
	if err := l.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(1)); err != ErrCrashInjected {
		t.Fatalf("armed append: %v, want ErrCrashInjected", err)
	}
	if err := l.Append(rec(2)); err != ErrCrashInjected {
		t.Fatalf("append on poisoned log: %v, want ErrCrashInjected", err)
	}
}

// ParseCrashPlan round-trips the CLI form and rejects junk.
func TestParseCrashPlan(t *testing.T) {
	p, err := ParseCrashPlan("torn-write:3")
	if err != nil || p.Point != CrashTornWrite || p.AfterAppends != 3 {
		t.Fatalf("ParseCrashPlan = %+v, %v", p, err)
	}
	for _, bad := range []string{"", "torn-write", "torn-write:x", "torn-write:-1", "nosuch:1"} {
		if _, err := ParseCrashPlan(bad); err == nil {
			t.Fatalf("ParseCrashPlan(%q) accepted", bad)
		}
	}
}

// A damaged magic header recovers to an empty, writable journal.
func TestDamagedHeaderRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{NoSync: true})
	l.Append(rec(0))
	l.Close()
	os.WriteFile(filepath.Join(dir, fileName), []byte("garbage"), 0o644)
	l2, recs, st := collect(t, dir, Options{NoSync: true})
	if len(recs) != 0 || !st.TornTail {
		t.Fatalf("damaged header: %d records, stats %+v", len(recs), st)
	}
	if err := l2.Append(rec(9)); err != nil {
		t.Fatalf("append after header recovery: %v", err)
	}
	l2.Close()
	_, recs, st = collect(t, dir, Options{NoSync: true})
	if len(recs) != 1 || !bytes.Equal(recs[0], rec(9)) || st.TornTail {
		t.Fatalf("after header recovery: %d records, stats %+v", len(recs), st)
	}
}

// failAfter reads r and fails with err once n bytes have been read.
type failAfter struct {
	r   io.Reader
	n   int
	err error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	k, err := f.r.Read(p[:min(len(p), f.n)])
	f.n -= k
	return k, err
}

// A read error during replay is not a torn tail: scan returns it, whether
// it strikes in the magic header or inside a record's payload, instead of
// ending the valid prefix there (which recovery would truncate or, for the
// header, recreate empty). The same cut as the end of the data still is a
// torn tail.
func TestReadErrorIsNotTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{NoSync: true})
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(filepath.Join(dir, fileName))
	if err != nil {
		t.Fatal(err)
	}
	first := int64(len(magic) + frameHeader + len(rec(0)))
	injected := errors.New("injected read error")
	for _, c := range []struct {
		name    string
		cut     int64 // bytes read before the error
		replays int   // records delivered before it
		tornEnd int64 // where an EOF at the same cut ends the prefix
	}{
		{"header", 4, 0, -1},
		{"payload", first + frameHeader + 3, 1, first},
	} {
		var got int
		count := func([]byte) error { got++; return nil }
		r := &failAfter{r: bytes.NewReader(data), n: int(c.cut), err: injected}
		end, err := (&Log{}).scan(r, int64(len(data)), count)
		if !errors.Is(err, injected) || !strings.HasPrefix(err.Error(), "journal: ") {
			t.Fatalf("%s: scan = %d, %v; want a journal: error wrapping the read error", c.name, end, err)
		}
		if got != c.replays {
			t.Fatalf("%s: %d records replayed before the error, want %d", c.name, got, c.replays)
		}
		end, err = (&Log{}).scan(bytes.NewReader(data[:c.cut]), c.cut, nil)
		if err != nil || end != c.tornEnd {
			t.Fatalf("%s: EOF at the same cut: scan = %d, %v; want %d, nil", c.name, end, err, c.tornEnd)
		}
	}
}

// Concurrent appends are serialized and all durable (run under -race in
// CI).
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{NoSync: true})
	var wg sync.WaitGroup
	const g, per = 8, 25
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("g%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	_, recs, st := collect(t, dir, Options{NoSync: true})
	if len(recs) != g*per || st.TornTail {
		t.Fatalf("recovered %d records (torn=%v), want %d", len(recs), st.TornTail, g*per)
	}
}

// The obs counters see writes, replays and recovered artifacts.
func TestObsCounters(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _, err := Open(dir, Options{NoSync: true, Obs: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		l.Append(rec(i))
	}
	l.Close()
	// Tear the tail by hand: append garbage bytes to the file.
	f, _ := os.OpenFile(filepath.Join(dir, fileName), os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{1, 2, 3})
	f.Close()

	l2, _, err := Open(dir, Options{NoSync: true, Obs: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	var b strings.Builder
	reg.Render(&b)
	out := b.String()
	for _, want := range []string{
		"journal_records_written_total 7",
		"journal_records_replayed_total 7",
		"journal_torn_tails_recovered_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// KeyOf is deterministic and sensitive to every field.
func TestKeyOf(t *testing.T) {
	type fp struct {
		A int
		B string
	}
	k1, k2 := KeyOf(fp{1, "x"}), KeyOf(fp{1, "x"})
	if k1 != k2 || len(k1) != 64 {
		t.Fatalf("KeyOf not deterministic: %q vs %q", k1, k2)
	}
	if KeyOf(fp{2, "x"}) == k1 || KeyOf(fp{1, "y"}) == k1 {
		t.Fatalf("KeyOf ignored a field change")
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("p"), 256)
	for _, mode := range []struct {
		name string
		sync bool
	}{{"nosync", false}, {"fsync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			l, _, err := Open(dir, Options{NoSync: !mode.sync}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload) + frameHeader))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
