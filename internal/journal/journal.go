// Package journal is a dependency-free, crash-safe, append-only record
// log: the durable substrate under the resumable experiment sweeps
// (runner.Checkpoint) and the hxd daemon's job journal.
//
// A journal is one file, jseg-00000000.wal, in its directory. The file
// starts with an 8-byte magic header and holds a sequence of framed
// records:
//
//	[u32 payload length][u32 sequence][u32 CRC32C(sequence ‖ payload)][payload]
//
// (little-endian, CRC32C = Castagnoli). The sequence number counts the
// records from the start of the file, so recovery detects not only torn
// frames but also holes — a truncation that happens to land on a frame
// boundary still breaks the sequence of the next surviving record. The
// file is created as a temp file, fsync'd with its header, renamed into
// place, and the directory is fsync'd — so it either exists with its
// header or not at all.
//
// The crash contract: after a process death at ANY write boundary,
// Open recovers the longest valid prefix of records and never errors on a
// crash artifact. Recovery scans the file and stops at the first invalid
// frame (torn header, impossible length, short payload, CRC mismatch or
// out-of-sequence record); everything before it replays and the damaged
// tail is truncated away, so a re-opened journal appends exactly where
// the valid prefix ends. A file whose magic header is damaged holds no
// trustworthy record and is recreated empty. A read error is not a crash
// artifact: any error but the end of the file fails Open and leaves the
// file as it was, since the records past it may be intact. The
// crash-injection hooks (CrashPlan) drive a writer through each of those
// boundaries deliberately, which is how the recovery path is tested —
// including from the CLIs, where an injected crash is a real os.Exit
// mid-write.
//
// A journal that grew past 8 MiB under segment rotation also holds a
// second segment file, jseg-00000001.wal; Open refuses such a directory
// rather than replay only part of it.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"hammingmesh/internal/obs"
)

const (
	// magic opens the journal file; the trailing byte versions the
	// format.
	magic = "hxjrnl\x00\x01"
	// frameHeader is the per-record framing overhead: u32 length + u32
	// sequence + u32 CRC.
	frameHeader = 12
	// MaxRecordBytes bounds a single record; a length field beyond it is
	// treated as a crash artifact, not an allocation request.
	MaxRecordBytes = 64 << 20
	// fileName is the journal file in its directory.
	fileName = "jseg-00000000.wal"
	// secondSegment exists only in a journal that rotated past 8 MiB.
	secondSegment = "jseg-00000001.wal"
)

// castagnoli is the CRC32C table (the checksum used by most journaling
// storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Options configures a Log.
type Options struct {
	// NoSync skips the fsync after each append (the creation syncs stay).
	// Replayed results are then only as durable as the OS page cache —
	// fine for tests and benchmarks, wrong for checkpoints.
	NoSync bool
	// Obs, when non-nil, registers the journal counters (records written /
	// replayed, bytes written, torn tails recovered) so recovery is
	// visible on /metrics.
	Obs *obs.Registry
	// Crash arms the crash-injection harness (tests and the CLIs'
	// -journal-crash flag); nil in production.
	Crash *CrashPlan
}

// Stats reports what Open found and recovered.
type Stats struct {
	// Records is the number of valid records replayed.
	Records int
	// TornTail reports that a crash artifact (torn frame, damaged header)
	// was found and truncated away.
	TornTail bool
}

// Log is an open journal positioned for appends. Safe for concurrent use.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File // the journal file, opened for appends
	seq      uint32   // next record's sequence number
	appends  int      // successful appends since Open (CrashPlan counter)
	closed   bool
	poisoned bool // an injected crash fired; the writer is dead
	buf      []byte
	stats    Stats

	written, writtenBytes, replayed, tornTails *obs.Counter
}

// Open opens (or creates) the journal in dir, replays every valid record
// through fn in append order, truncates any crash artifact at the tail,
// and returns the log positioned for appends. fn may be nil to skip
// payload delivery; an fn error aborts the open.
func Open(dir string, o Options, fn func(rec []byte) error) (*Log, Stats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Stats{}, fmt.Errorf("journal: %w", err)
	}
	second := filepath.Join(dir, secondSegment)
	if _, err := os.Lstat(second); !errors.Is(err, fs.ErrNotExist) {
		if err == nil {
			err = fmt.Errorf("%s: second segment of a journal that rotated past 8 MiB; a journal replays one file only, so use a fresh directory", second)
		}
		return nil, Stats{}, fmt.Errorf("journal: %w", err)
	}
	l := &Log{opts: o}
	if r := o.Obs; r != nil {
		l.written = r.Counter("journal_records_written_total", "", "records appended to the journal")
		l.writtenBytes = r.Counter("journal_bytes_written_total", "", "framed bytes appended to the journal")
		l.replayed = r.Counter("journal_records_replayed_total", "", "valid records replayed on journal open")
		l.tornTails = r.Counter("journal_torn_tails_recovered_total", "", "crash artifacts truncated away on journal open")
	}
	if err := l.recover(dir, fn); err != nil {
		return nil, l.stats, err
	}
	l.seq = uint32(l.stats.Records)
	return l, l.stats, nil
}

// recover replays the file's valid prefix, truncates the first crash
// artifact away (or recreates a file whose header is damaged) and keeps
// the file open for appends.
func (l *Log) recover(dir string, fn func([]byte) error) error {
	path := filepath.Join(dir, fileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return l.create(dir, path)
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	size := fi.Size()
	end, err := l.scan(f, size, fn)
	if err != nil {
		f.Close()
		return err
	}
	if end < 0 {
		f.Close()
		l.noteTorn()
		return l.create(dir, path)
	}
	if end < size {
		l.noteTorn()
		if err := f.Truncate(end); err != nil {
			f.Close()
			return fmt.Errorf("journal: truncate tail: %w", err)
		}
	}
	l.f = f
	return nil
}

// noteTorn records one recovered crash artifact.
func (l *Log) noteTorn() {
	l.stats.TornTail = true
	if l.tornTails != nil {
		l.tornTails.Inc()
	}
}

// scan replays the valid records of r, a journal file of size bytes read
// from its start, and returns the offset where the valid prefix ends, or
// -1 when the magic header itself is damaged. Only the end of the data
// (io.EOF, io.ErrUnexpectedEOF) and a frame failing its length, CRC or
// sequence check end the prefix; any other read error is returned, so the
// caller fails without truncating records it could not read.
func (l *Log) scan(r io.Reader, size int64, fn func([]byte) error) (end int64, err error) {
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		if !isEOF(err) {
			return 0, fmt.Errorf("journal: read header: %w", err)
		}
		return -1, nil
	}
	if string(hdr) != magic {
		return -1, nil
	}
	offset := int64(len(magic))
	var frame [frameHeader]byte
	var payload []byte
	for {
		// A clean EOF ends the file; a partial frame header is a torn
		// append.
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if !isEOF(err) {
				return 0, fmt.Errorf("journal: read record %d: %w", l.stats.Records, err)
			}
			return offset, nil
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		seq := binary.LittleEndian.Uint32(frame[4:8])
		sum := binary.LittleEndian.Uint32(frame[8:12])
		// A length past the end of the file is a torn frame; checking it
		// before allocating keeps a damaged length from sizing a buffer.
		if length > MaxRecordBytes || int64(length) > size-offset-frameHeader {
			return offset, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			if !isEOF(err) {
				return 0, fmt.Errorf("journal: read record %d: %w", l.stats.Records, err)
			}
			return offset, nil
		}
		if crc32.Update(crc32.Checksum(frame[4:8], castagnoli), castagnoli, payload) != sum {
			return offset, nil
		}
		// A checksummed record with the wrong sequence number means a
		// hole (a boundary-aligned truncation earlier in the journal):
		// the valid prefix ends before it.
		if seq != uint32(l.stats.Records) {
			return offset, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return 0, err
			}
		}
		l.stats.Records++
		if l.replayed != nil {
			l.replayed.Inc()
		}
		offset += frameHeader + int64(length)
	}
}

// isEOF reports whether a read error only means the data ran out: the
// file ends there, which is a torn tail, not a failed read.
func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// create atomically creates the journal file at path with its header
// (temp file, fsync, rename, directory fsync), replacing any file there,
// and opens it for appends.
func (l *Log) create(dir, path string) error {
	tmp, err := os.CreateTemp(dir, "jseg-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := tmp.WriteString(magic); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: create: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: create: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: create: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	l.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// syncDir fsyncs the journal directory so the rename is durable.
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

// Append frames rec (length prefix + CRC32C), appends it to the file and
// fsyncs (unless Options.NoSync). The record is durable when Append
// returns.
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
	if _, err := l.f.Write(l.buf); err != nil {
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
		l.writtenBytes.Add(int64(len(l.buf)))
	}
	return nil
}

// Close fsyncs and closes the journal file. Further appends fail with
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
