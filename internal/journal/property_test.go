package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// Property test for torn-tail recovery: write a journal, corrupt its file
// at a random offset — truncation (a torn write) or a bit flip (media
// damage / partial sector) — and require that Open (a) never panics or
// errors, (b) replays a prefix of the original records, (c) replays the
// longest prefix consistent with the damage (every record strictly before
// the damaged byte survives), and (d) accepts appends afterwards that
// round-trip through one more recovery.
func TestTornTailRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			dir := t.TempDir()
			o := Options{NoSync: true}
			l, _, err := Open(dir, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := 1 + rng.Intn(40)
			var originals [][]byte
			// ends[i] is the file offset where record i's frame ends, so
			// the "longest valid prefix" bound is checkable.
			var ends []int64
			end := int64(len(magic))
			for i := 0; i < n; i++ {
				r := make([]byte, 1+rng.Intn(120))
				rng.Read(r)
				originals = append(originals, r)
				if err := l.Append(r); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				end += int64(frameHeader + len(r))
				ends = append(ends, end)
			}
			l.Close()

			path := filepath.Join(dir, fileName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(data)) != end {
				t.Fatalf("journal file holds %d bytes, framing model says %d", len(data), end)
			}
			corruptAt := rng.Intn(len(data))
			truncate := rng.Intn(2) == 0
			if truncate {
				data = data[:corruptAt]
			} else {
				data[corruptAt] ^= 1 << uint(rng.Intn(8))
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			// Every record that ends at or before the damaged byte must
			// survive.
			mustSurvive := 0
			for i, e := range ends {
				if e <= int64(corruptAt) {
					mustSurvive = i + 1
				}
			}

			var recs [][]byte
			l2, st, err := Open(dir, o, func(rec []byte) error {
				recs = append(recs, append([]byte(nil), rec...))
				return nil
			})
			if err != nil {
				t.Fatalf("recovery errored on a crash artifact: %v", err)
			}
			if len(recs) > n {
				t.Fatalf("recovered %d records from a %d-record journal", len(recs), n)
			}
			for i, r := range recs {
				if !bytes.Equal(r, originals[i]) {
					t.Fatalf("recovered record %d is not a prefix of the original sequence", i)
				}
			}
			if len(recs) < mustSurvive {
				t.Fatalf("recovered %d records, but %d end before the damage (offset %d, truncate=%v, stats %+v)",
					len(recs), mustSurvive, corruptAt, truncate, st)
			}

			// Re-append after recovery round-trips through another open.
			post := []byte("post-damage")
			if err := l2.Append(post); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			l2.Close()
			var recs2 [][]byte
			l3, _, err := Open(dir, o, func(rec []byte) error {
				recs2 = append(recs2, append([]byte(nil), rec...))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			l3.Close()
			if len(recs2) != len(recs)+1 || !bytes.Equal(recs2[len(recs)], post) {
				t.Fatalf("post-recovery append did not round-trip: %d vs %d records", len(recs2), len(recs)+1)
			}
		})
	}
}

// FuzzOpen writes the fuzz input as the journal file and opens it. Open
// must neither panic nor error on any bytes; a second open must replay
// the same records and find nothing left to truncate; and a record
// appended after that must come back on the next open.
func FuzzOpen(f *testing.F) {
	recs := [][]byte{[]byte("first"), []byte("second record"), []byte("3")}
	dir := f.TempDir()
	l, _, err := Open(dir, Options{NoSync: true}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	clean, err := os.ReadFile(filepath.Join(dir, fileName))
	if err != nil {
		f.Fatal(err)
	}
	// frame[i] is where record i's frame starts in clean.
	frame := []int{len(magic)}
	for _, r := range recs {
		frame = append(frame, frame[len(frame)-1]+frameHeader+len(r))
	}
	badCRC := bytes.Clone(clean)
	badCRC[frame[1]+8] ^= 0x40
	tooLong := bytes.Clone(clean)
	binary.LittleEndian.PutUint32(tooLong[frame[2]:], MaxRecordBytes+1)
	badHeader := bytes.Clone(clean)
	badHeader[3] ^= 0xff
	for _, seed := range [][]byte{
		clean,
		[]byte(magic),
		{},
		clean[:frame[2]+frameHeader/2], // tail cut mid-frame
		badCRC,
		tooLong, // length field above MaxRecordBytes
		append(clean[:frame[1]:frame[1]], clean[frame[2]:]...), // record 2 right after record 0
		badHeader,
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, first, _ := collect(t, dir, Options{NoSync: true})
		l.Close()
		l, again, st := collect(t, dir, Options{NoSync: true})
		if st.TornTail || st.Records != len(first) || !slices.EqualFunc(first, again, bytes.Equal) {
			t.Fatalf("second open replayed %d records (stats %+v), first open %d", len(again), st, len(first))
		}
		post := []byte("post-fuzz")
		if err := l.Append(post); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()
		l, last, st := collect(t, dir, Options{NoSync: true})
		l.Close()
		if st.TornTail || !slices.EqualFunc(last, append(again, post), bytes.Equal) {
			t.Fatalf("appended record did not come back: %d records (stats %+v), want %d", len(last), st, len(again)+1)
		}
	})
}
