// Package store persists equivalence verdicts across daemon restarts.
//
// The format is a single append-only log file: the 8-byte magic
// "KEQVLOG2" followed by CRC-framed binary records, one per (canonical
// pair key, verdict).  A frame is a u32 LE payload length, a u32 LE
// CRC32 (IEEE) of the payload, then the payload: a uvarint key length,
// the key bytes, a flags byte (bit 0 Holds, bit 1 ChaseFailed, no other
// bit set), and zigzag varints for Nodes, Searches, ChaseIterations,
// ChaseMerges and ChaseRevisited, with nothing after them.
//
// Appends are the only write path during serving, so a crash —
// including kill -9 mid-write — can damage at most the unsynced tail;
// Open detects a torn tail (short frame, checksum mismatch, or a
// payload that does not decode exactly) and truncates it rather than
// failing, losing only the records that were never durable anyway.
// Open upgrades a "KEQVLOG1" log, whose payloads are JSON, by
// rewriting its intact records in the current format.
//
// Compaction rewrites the log from a caller-supplied live set (write
// temp file, fsync, rename, fsync the directory), bounding replay time
// for long-lived daemons whose working set is much smaller than their
// append history.
//
// The package is deliberately dependency-light: no clocks, no metrics.
// Callers own observability (the daemon counts appends, replayed
// records, truncated bytes, and compactions around these calls).
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"keyedeq/internal/containment"
)

// Record is one persisted verdict: the engine-canonical pair key
// (fingerprint-qualified by the daemon) and the decision with the work
// stats the original computation spent.  The JSON names are those of
// the KEQVLOG1 payloads that Open upgrades.
type Record struct {
	Key   string            `json:"k"`
	Holds bool              `json:"h"`
	Stats containment.Stats `json:"s"`
}

// Options tune a Log.
type Options struct {
	// SyncEvery syncs the file to stable storage after every N appends;
	// 0 picks a default of 64, negative disables implicit syncs (the
	// caller must Sync explicitly, e.g. on drain).
	SyncEvery int
}

// ReplayStats reports what Open's recovery scan found.
type ReplayStats struct {
	// Records is the number of intact records in the log.
	Records int
	// TruncatedBytes counts bytes dropped from a torn tail (0 for a
	// cleanly closed log).
	TruncatedBytes int64
}

const (
	logMagic = "KEQVLOG2"
	// logMagicV1 heads a log of JSON payloads, which Open upgrades.
	logMagicV1 = "KEQVLOG1"
	magicLen   = len(logMagic) // both magics
	// frameHeaderLen is the per-record prefix: u32 LE payload length +
	// u32 LE CRC32 (IEEE) of the payload.
	frameHeaderLen = 8
	// maxRecordLen bounds a single payload; longer lengths in a header
	// mean corruption, not a giant record.
	maxRecordLen     = 1 << 24
	defaultSyncEvery = 64
	// ioBufLen sizes the buffers that read a whole log and write a
	// rewritten one.
	ioBufLen = 64 << 10

	flagHolds       = 1 << 0
	flagChaseFailed = 1 << 1
)

// Log is an append-only verdict log bound to one file.  All methods are
// safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	opts     Options
	size     int64 // valid bytes (append offset)
	records  int
	pending  int    // appends since the last sync
	buf      []byte // Append's frame scratch
	recovery ReplayStats
	closed   bool
}

// Open opens or creates the log at path, scans it for intact records,
// and truncates any torn tail so subsequent appends extend a valid log.
// A KEQVLOG1 log is upgraded to the current format first.  A corrupt
// header (wrong magic) is fatal — that is not a torn tail but the
// wrong file.
func Open(path string, opts Options) (*Log, error) {
	if opts.SyncEvery == 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, path: path, opts: opts}
	if err := l.recover(); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// recover validates the magic (writing it into an empty file), checks
// every frame, and truncates the file at the first damaged one; a
// KEQVLOG1 log goes to upgrade instead.
func (l *Log) recover() error {
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		if _, err := l.f.WriteAt([]byte(logMagic), 0); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.size = int64(magicLen)
		return nil
	}
	header := make([]byte, magicLen)
	if _, err := l.f.ReadAt(header, 0); err != nil || string(header) != logMagic {
		if err == nil && string(header) == logMagicV1 {
			return l.upgrade(size)
		}
		return fmt.Errorf("store: %s: not a verdict log (bad magic)", l.path)
	}
	fr := newFrameReader(l.f, size)
	off := int64(magicLen)
	var rec Record
	for {
		p, err := fr.next()
		if err != nil {
			break // io.EOF, or damage: a torn tail
		}
		if _, ok := decodeRecord(p, &rec); !ok {
			break // checksum matched garbage (e.g. foreign format): torn tail
		}
		off += frameHeaderLen + int64(len(p))
		l.recovery.Records++
	}
	if off < size {
		l.recovery.TruncatedBytes = size - off
		if err := l.f.Truncate(off); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.size = off
	l.records = l.recovery.Records
	return nil
}

// upgrade replaces a KEQVLOG1 log of the given size, whose payloads are
// JSON, with a log in the current format holding its intact records.
// The rest of the old file, from its first damaged frame on, is a torn
// tail: it is dropped and counted as recover counts one.
func (l *Log) upgrade(size int64) error {
	fr := newFrameReader(l.f, size)
	off := int64(magicLen)
	f, newSize, records, err := rewrite(l.path, func(put func(Record) error) error {
		for {
			p, err := fr.next()
			if err != nil {
				return nil // io.EOF, or damage: a torn tail
			}
			var rec Record
			if json.Unmarshal(p, &rec) != nil {
				return nil // checksum matched garbage: a torn tail
			}
			if err := put(rec); err != nil {
				return err
			}
			off += frameHeaderLen + int64(len(p))
		}
	})
	if err != nil {
		return fmt.Errorf("store: upgrading %s: %w", l.path, err)
	}
	l.f.Close()
	l.f, l.size, l.records = f, newSize, records
	l.recovery = ReplayStats{Records: records, TruncatedBytes: size - off}
	return nil
}

// RecoveryStats reports what Open's scan found (intact records, bytes
// truncated from a torn tail).
func (l *Log) RecoveryStats() ReplayStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recovery
}

// Records returns the number of records currently in the log (recovered
// plus appended, including superseded duplicates of the same key).
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Replay calls fn for every record in append order, via an independent
// read handle.  Later records for the same key supersede earlier ones;
// the caller folds that (a map assignment does).  fn returning an error
// stops the replay.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	path, size := l.path, l.size
	l.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fr := newFrameReader(f, size)
	for {
		p, err := fr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: replay %s: %v", path, err)
		}
		var rec Record
		key, ok := decodeRecord(p, &rec)
		if !ok {
			return fmt.Errorf("store: replay %s: undecodable record", path)
		}
		// A copy, so that a record the caller keeps does not pin the
		// read buffer.
		rec.Key = string(key)
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Append durably queues one record at the log tail, syncing every
// Options.SyncEvery appends.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: append on closed log %s", l.path)
	}
	frame, err := appendFrame(l.buf[:0], rec)
	if err != nil {
		return err
	}
	l.buf = frame
	if _, err := l.f.WriteAt(frame, l.size); err != nil {
		// Part of the frame may be in the file.  Cut it off, so that
		// the next append lands where Open looks for it.
		if terr := l.f.Truncate(l.size); terr != nil {
			return errors.Join(err, terr)
		}
		return err
	}
	l.size += int64(len(frame))
	l.records++
	l.pending++
	if l.opts.SyncEvery > 0 && l.pending >= l.opts.SyncEvery {
		l.pending = 0
		return l.f.Sync()
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.pending = 0
	return l.f.Sync()
}

// Compact atomically replaces the log's contents with exactly the live
// records (see rewrite).  On success the open handle switches to the
// new file; a failure before the rename leaves the original log
// untouched.
func (l *Log) Compact(live []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: compact on closed log %s", l.path)
	}
	f, size, records, err := rewrite(l.path, func(put func(Record) error) error {
		for _, rec := range live {
			if err := put(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.f.Close()
	l.f, l.size, l.records, l.pending = f, size, records, 0
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	serr := l.f.Sync()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// rewrite replaces the log at path with a log of the records that fill
// passes to put: it writes them to a temp file in the same directory,
// fsyncs it, renames it over path, and fsyncs the directory, so that
// the new name is durable before any append lands in the file.  It
// returns the new file open for appending, with its size and record
// count.  An error before the rename leaves the log at path untouched.
func rewrite(path string, fill func(put func(Record) error) error) (*os.File, int64, int, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".compact-*")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriterSize(tmp, ioBufLen)
	size := int64(magicLen)
	records := 0
	var frame []byte
	_, err = w.WriteString(logMagic)
	if err == nil {
		err = fill(func(rec Record) error {
			var err error
			if frame, err = appendFrame(frame[:0], rec); err != nil {
				return err
			}
			if _, err := w.Write(frame); err != nil {
				return err
			}
			size += int64(len(frame))
			records++
			return nil
		})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, 0, 0, err
	}
	if err := syncDir(dir); err != nil {
		return nil, 0, 0, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, 0, err
	}
	return f, size, records, nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// frameReader reads the frames of one log file in order, through one
// buffer, checking each frame's length and checksum.  It serves Open's
// scan, Replay and the KEQVLOG1 upgrade; framing is the same in every
// format.
type frameReader struct {
	r       *bufio.Reader
	left    int64 // bytes after the last frame read
	hdr     [frameHeaderLen]byte
	payload []byte
}

// newFrameReader reads the frames of f that follow the magic and end by
// size.
func newFrameReader(f *os.File, size int64) *frameReader {
	left := size - int64(magicLen)
	return &frameReader{
		r:    bufio.NewReaderSize(io.NewSectionReader(f, int64(magicLen), left), ioBufLen),
		left: left,
	}
}

// next returns the payload of the next frame, valid until the next
// call, or io.EOF after the last one.  Any other error is damage: a
// short frame, a length out of range, or a checksum mismatch.
func (fr *frameReader) next() ([]byte, error) {
	if fr.left == 0 {
		return nil, io.EOF
	}
	if fr.left < frameHeaderLen {
		return nil, errors.New("short frame header")
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(fr.hdr[0:4])
	sum := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if length == 0 || length > maxRecordLen || int64(length) > fr.left-frameHeaderLen {
		return nil, fmt.Errorf("frame length %d out of range", length)
	}
	if cap(fr.payload) < int(length) {
		fr.payload = make([]byte, length)
	}
	fr.payload = fr.payload[:length]
	if _, err := io.ReadFull(fr.r, fr.payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(fr.payload) != sum {
		return nil, errors.New("checksum mismatch")
	}
	fr.left -= frameHeaderLen + int64(length)
	return fr.payload, nil
}

// appendFrame appends rec to b as one frame: length, checksum, then the
// payload.
func appendFrame(b []byte, rec Record) ([]byte, error) {
	start := len(b)
	b = append(b, make([]byte, frameHeaderLen)...)
	b = binary.AppendUvarint(b, uint64(len(rec.Key)))
	b = append(b, rec.Key...)
	var flags byte
	if rec.Holds {
		flags |= flagHolds
	}
	if rec.Stats.ChaseFailed {
		flags |= flagChaseFailed
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, rec.Stats.Nodes)
	b = binary.AppendVarint(b, int64(rec.Stats.Searches))
	b = binary.AppendVarint(b, int64(rec.Stats.ChaseIterations))
	b = binary.AppendVarint(b, int64(rec.Stats.ChaseMerges))
	b = binary.AppendVarint(b, int64(rec.Stats.ChaseRevisited))
	payload := b[start+frameHeaderLen:]
	if len(payload) > maxRecordLen {
		return b[:start], fmt.Errorf("store: record for key %.64q exceeds %d bytes", rec.Key, maxRecordLen)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// decodeRecord decodes payload p into every field of rec but Key, and
// returns the key's bytes, which alias p.  ok is false unless p is
// exactly one record.
func decodeRecord(p []byte, rec *Record) (key []byte, ok bool) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n >= uint64(len(p)-w) {
		return nil, false // the flags byte must follow the key
	}
	key, p = p[w:w+int(n)], p[w+int(n):]
	flags := p[0]
	if flags&^(flagHolds|flagChaseFailed) != 0 {
		return nil, false
	}
	p = p[1:]
	var v [5]int64
	for i := range v {
		if v[i], w = binary.Varint(p); w <= 0 || int64(int(v[i])) != v[i] {
			return nil, false
		}
		p = p[w:]
	}
	if len(p) != 0 {
		return nil, false
	}
	rec.Holds = flags&flagHolds != 0
	rec.Stats = containment.StoredStats(v[0], int(v[1]), int(v[2]), int(v[3]), int(v[4]), flags&flagChaseFailed != 0)
	return key, true
}
