// Package journal is a dependency-free, crash-safe, append-only record
// log: the durable substrate under the resumable experiment sweeps
// (runner.Checkpoint) and the hxd daemon's job journal.
//
// A journal is a directory of segment files. Each segment starts with an
// 8-byte magic header and holds a sequence of framed records:
//
//	[u32 payload length][u32 sequence][u32 CRC32C(sequence ‖ payload)][payload]
//
// (little-endian, CRC32C = Castagnoli). The sequence number runs over the
// whole journal, so recovery detects not only torn frames but also holes —
// a truncation that happens to land on a frame boundary still breaks the
// sequence of the next surviving record. Appends go to the newest segment;
// when it exceeds Options.SegmentBytes the writer rotates: the full
// segment is fsync'd, the next one is created as a temp file, fsync'd with
// its header, renamed into place, and the directory is fsync'd — so a
// segment either exists completely or not at all.
//
// The crash contract: after a process death at ANY write boundary,
// Open recovers the longest valid prefix of records and never errors on a
// crash artifact. Recovery scans segments in order and stops at the first
// invalid frame (torn header, impossible length, short payload, CRC
// mismatch, or a segment with a damaged magic header); everything before
// it replays, the damaged tail is truncated away, and later segments are
// deleted, so a re-opened journal appends exactly where the valid prefix
// ends. The crash-injection hooks (CrashPlan) drive a writer through each
// of those boundaries deliberately, which is how the recovery path is
// tested — including from the CLIs, where an injected crash is a real
// os.Exit mid-write.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"hammingmesh/internal/obs"
)

const (
	// magic opens every segment file; the trailing byte versions the
	// format.
	magic = "hxjrnl\x00\x01"
	// frameHeader is the per-record framing overhead: u32 length + u32
	// sequence + u32 CRC.
	frameHeader = 12
	// MaxRecordBytes bounds a single record; a length field beyond it is
	// treated as a crash artifact, not an allocation request.
	MaxRecordBytes = 64 << 20
	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes at zero.
	DefaultSegmentBytes = 8 << 20
)

// castagnoli is the CRC32C table (the checksum used by most journaling
// storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append/Sync after Close.
var ErrClosed = errors.New("journal: closed")

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold (<= 0 uses
	// DefaultSegmentBytes). A segment always accepts at least one record,
	// so records larger than the threshold still append.
	SegmentBytes int64
	// NoSync skips the fsync after each append (the rotation and creation
	// syncs stay). Replayed results are then only as durable as the OS
	// page cache — fine for tests and benchmarks, wrong for checkpoints.
	NoSync bool
	// Obs, when non-nil, registers the journal counters (records written /
	// replayed, bytes written, segments created, torn tails recovered) so
	// recovery is visible on /metrics.
	Obs *obs.Registry
	// Crash arms the crash-injection harness (tests and the CLIs'
	// -journal-crash flag); nil in production.
	Crash *CrashPlan
}

// Stats reports what Open found and recovered.
type Stats struct {
	// Records is the number of valid records replayed.
	Records int
	// Segments is the number of segment files holding the valid prefix.
	Segments int
	// TornTail reports that a crash artifact (torn frame, damaged segment)
	// was found and truncated away.
	TornTail bool
	// DroppedBytes counts the artifact bytes removed during recovery.
	DroppedBytes int64
}

// Log is an open journal positioned for appends. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment
	seg      int      // active segment index
	size     int64    // active segment size in bytes
	seq      uint32   // next record's journal-wide sequence number
	appends  int      // successful appends since Open (CrashPlan counter)
	closed   bool
	poisoned bool // an injected crash fired; the writer is dead
	buf      []byte
	stats    Stats

	written, writtenBytes, replayed, tornTails, segments *obs.Counter
}

func segName(i int) string { return fmt.Sprintf("jseg-%08d.wal", i) }

// Open opens (or creates) the journal in dir, replays every valid record
// through fn in append order, truncates any crash artifact at the tail,
// and returns the log positioned for appends. fn may be nil to skip
// payload delivery; an fn error aborts the open.
func Open(dir string, o Options, fn func(rec []byte) error) (*Log, Stats, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Stats{}, fmt.Errorf("journal: %w", err)
	}
	l := &Log{dir: dir, opts: o}
	if r := o.Obs; r != nil {
		l.written = r.Counter("journal_records_written_total", "", "records appended to the journal")
		l.writtenBytes = r.Counter("journal_bytes_written_total", "", "framed bytes appended to the journal")
		l.replayed = r.Counter("journal_records_replayed_total", "", "valid records replayed on journal open")
		l.tornTails = r.Counter("journal_torn_tails_recovered_total", "", "crash artifacts truncated away on journal open")
		l.segments = r.Counter("journal_segments_created_total", "", "journal segment files created")
	}
	if err := l.recover(fn); err != nil {
		return nil, l.stats, err
	}
	l.seq = uint32(l.stats.Records)
	return l, l.stats, nil
}

// segIndices lists the existing segment indices in ascending order.
func segIndices(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idx []int
	for _, e := range ents {
		var i int
		if _, err := fmt.Sscanf(e.Name(), "jseg-%08d.wal", &i); err == nil && e.Name() == segName(i) {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// recover scans the segments, replays the valid prefix, truncates the
// first crash artifact and deletes everything after it, then positions
// the log for appends.
func (l *Log) recover(fn func([]byte) error) error {
	idx, err := segIndices(l.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if len(idx) == 0 {
		return l.createSegment(0)
	}
	for n, si := range idx {
		valid, last, err := l.scanSegment(si, fn)
		if err != nil {
			return err
		}
		if !valid || last {
			// The valid prefix ends in this segment (or, if even its
			// header is damaged, at the end of the previous one). Drop
			// every later segment: rotation syncs before creating the
			// next segment, so records can only be lost at the tail.
			for _, di := range idx[n+1:] {
				fi, _ := os.Stat(filepath.Join(l.dir, segName(di)))
				if fi != nil {
					l.stats.DroppedBytes += fi.Size()
				}
				if err := os.Remove(filepath.Join(l.dir, segName(di))); err != nil {
					return fmt.Errorf("journal: drop segment: %w", err)
				}
				l.noteTorn()
			}
			if !valid {
				// Damaged magic header: remove the segment entirely and
				// append to its predecessor (or recreate segment 0).
				if err := os.Remove(filepath.Join(l.dir, segName(si))); err != nil {
					return fmt.Errorf("journal: drop segment: %w", err)
				}
				l.noteTorn()
				if n == 0 {
					return l.createSegment(idx[0])
				}
				return l.openSegmentForAppend(idx[n-1])
			}
			return l.openSegmentForAppend(si)
		}
	}
	return l.openSegmentForAppend(idx[len(idx)-1])
}

// noteTorn records one recovered crash artifact.
func (l *Log) noteTorn() {
	l.stats.TornTail = true
	if l.tornTails != nil {
		l.tornTails.Inc()
	}
}

// scanSegment replays the segment's valid records. valid=false means the
// magic header itself is damaged; last=true means a torn frame was
// truncated away, so the valid prefix ends here.
func (l *Log) scanSegment(si int, fn func([]byte) error) (valid, last bool, err error) {
	path := filepath.Join(l.dir, segName(si))
	f, err := os.Open(path)
	if err != nil {
		return false, false, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != magic {
		fi, _ := f.Stat()
		if fi != nil {
			l.stats.DroppedBytes += fi.Size()
		}
		return false, false, nil
	}
	l.stats.Segments++

	offset := int64(len(magic))
	var frame [frameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			// Clean EOF ends the segment; a partial frame header is a
			// torn append.
			if err == io.EOF {
				return true, false, nil
			}
			return true, true, l.truncateTail(path, offset)
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		seq := binary.LittleEndian.Uint32(frame[4:8])
		sum := binary.LittleEndian.Uint32(frame[8:12])
		if length > MaxRecordBytes {
			return true, true, l.truncateTail(path, offset)
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			return true, true, l.truncateTail(path, offset)
		}
		if crc32.Update(crc32.Checksum(frame[4:8], castagnoli), castagnoli, payload) != sum {
			return true, true, l.truncateTail(path, offset)
		}
		// A checksummed record with the wrong sequence number means a
		// hole (a boundary-aligned truncation earlier in the journal):
		// the valid prefix ends before it.
		if seq != uint32(l.stats.Records) {
			return true, true, l.truncateTail(path, offset)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return false, false, err
			}
		}
		l.stats.Records++
		if l.replayed != nil {
			l.replayed.Inc()
		}
		offset += frameHeader + int64(length)
	}
}

// truncateTail cuts the segment back to the end of its last valid record.
func (l *Log) truncateTail(path string, validEnd int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.stats.DroppedBytes += fi.Size() - validEnd
	if err := os.Truncate(path, validEnd); err != nil {
		return fmt.Errorf("journal: truncate tail: %w", err)
	}
	l.noteTorn()
	return nil
}

// createSegment atomically creates segment si with its header (temp file,
// fsync, rename, directory fsync) and makes it the active segment.
func (l *Log) createSegment(si int) error {
	path := filepath.Join(l.dir, segName(si))
	tmp, err := os.CreateTemp(l.dir, "jseg-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := tmp.WriteString(magic); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: create segment: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: create segment: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: create segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.seg, l.size = f, si, int64(len(magic))
	if l.stats.Segments <= si {
		l.stats.Segments = si + 1
	}
	if l.segments != nil {
		l.segments.Inc()
	}
	return nil
}

// openSegmentForAppend makes the recovered segment the active one.
func (l *Log) openSegmentForAppend(si int) error {
	path := filepath.Join(l.dir, segName(si))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	l.f, l.seg, l.size = f, si, fi.Size()
	return nil
}

// syncDir fsyncs the journal directory so renames and removals are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}

// Append frames rec (length prefix + CRC32C) and appends it to the active
// segment, rotating first when the segment is full, then fsyncs (unless
// Options.NoSync). The record is durable when Append returns.
func (l *Log) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned {
		return ErrCrashInjected
	}
	if len(rec) > MaxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecordBytes", len(rec))
	}
	if err := l.crash(CrashBeforeAppend); err != nil {
		return err
	}
	frame := int64(frameHeader + len(rec))
	if l.size > int64(len(magic)) && l.size+frame > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	l.buf = l.buf[:0]
	l.buf = binary.LittleEndian.AppendUint32(l.buf, uint32(len(rec)))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, l.seq)
	l.buf = binary.LittleEndian.AppendUint32(l.buf,
		crc32.Update(crc32.Checksum(l.buf[4:8], castagnoli), castagnoli, rec))
	l.buf = append(l.buf, rec...)
	if l.crashArmed(CrashTornWrite) {
		// The injected torn write: a prefix of the frame reaches the
		// file, then the "process dies" — exactly the artifact a real
		// crash between write and sync can leave.
		torn := l.buf[:frameHeader+len(rec)/2]
		l.f.Write(torn)
		l.f.Sync()
		return l.crash(CrashTornWrite)
	}
	n, err := l.f.Write(l.buf)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := l.crash(CrashBeforeSync); err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	l.seq++
	l.appends++
	if l.written != nil {
		l.written.Inc()
		l.writtenBytes.Add(frame)
	}
	return nil
}

// rotate seals the active segment (fsync) and atomically creates the
// next. Caller holds l.mu.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: rotate sync: %w", err)
	}
	if err := l.crash(CrashBeforeRotate); err != nil {
		return err
	}
	if err := l.createSegment(l.seg + 1); err != nil {
		return err
	}
	return l.crash(CrashAfterRotate)
}

// Sync fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Close fsyncs and closes the active segment. Further appends fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}
