// Package store persists equivalence verdicts across daemon restarts.
//
// The format is a single append-only log file: an 8-byte magic header
// followed by CRC-framed JSON records, one per (canonical pair key,
// verdict).  Appends are the only write path during serving, so a crash
// — including kill -9 mid-write — can damage at most the unsynced tail;
// Open detects a torn tail (short frame, checksum mismatch, or
// undecodable payload) and truncates it rather than failing, losing
// only the records that were never durable anyway.
//
// Compaction rewrites the log from a caller-supplied live set (write
// temp file, fsync, rename), bounding replay time for long-lived
// daemons whose working set is much smaller than their append history.
//
// The package is deliberately dependency-light: no clocks, no metrics.
// Callers own observability (the daemon counts appends, replayed
// records, truncated bytes, and compactions around these calls).
package store

import (
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
// stats the original computation spent.
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
	logMagic = "KEQVLOG1"
	// frameHeaderLen is the per-record prefix: u32 LE payload length +
	// u32 LE CRC32 (IEEE) of the payload.
	frameHeaderLen = 8
	// maxRecordLen bounds a single payload; longer lengths in a header
	// mean corruption, not a giant record.
	maxRecordLen     = 1 << 24
	defaultSyncEvery = 64
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
	pending  int // appends since the last sync
	recovery ReplayStats
	closed   bool
}

// Open opens or creates the log at path, scans it for intact records,
// and truncates any torn tail so subsequent appends extend a valid log.
// A corrupt header (wrong magic) is fatal — that is not a torn tail but
// the wrong file.
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
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover validates the magic (writing it into an empty file), scans
// every frame, and truncates the file at the first damaged one.
func (l *Log) recover() error {
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		if _, err := l.f.Write([]byte(logMagic)); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.size = int64(len(logMagic))
		return nil
	}
	header := make([]byte, len(logMagic))
	if _, err := io.ReadFull(l.f, header); err != nil || string(header) != logMagic {
		return fmt.Errorf("store: %s: not a verdict log (bad magic)", l.path)
	}
	off := int64(len(logMagic))
	var hdr [frameHeaderLen]byte
	payload := make([]byte, 0, 4096)
	for off < st.Size() {
		if _, err := io.ReadFull(l.f, hdr[:]); err != nil {
			break // short header: torn tail
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordLen || off+frameHeaderLen+int64(length) > st.Size() {
			break // nonsense length or frame runs past EOF: torn tail
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(l.f, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // bit rot or interleaved partial write: torn tail
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // checksum matched garbage (e.g. foreign format): torn tail
		}
		off += frameHeaderLen + int64(length)
		l.recovery.Records++
	}
	if off < st.Size() {
		l.recovery.TruncatedBytes = st.Size() - off
		if err := l.f.Truncate(off); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	l.size = off
	l.records = l.recovery.Records
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
	r := io.NewSectionReader(f, int64(len(logMagic)), size-int64(len(logMagic)))
	var hdr [frameHeaderLen]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("store: replay %s: %v", path, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordLen {
			return fmt.Errorf("store: replay %s: frame length %d out of range", path, length)
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("store: replay %s: %v", path, err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return fmt.Errorf("store: replay %s: checksum mismatch", path)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("store: replay %s: %v", path, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Append durably queues one record at the log tail, syncing every
// Options.SyncEvery appends.
func (l *Log) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if len(payload) > maxRecordLen {
		return fmt.Errorf("store: record for key %.64q exceeds %d bytes", rec.Key, maxRecordLen)
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: append on closed log %s", l.path)
	}
	if _, err := l.f.Write(frame); err != nil {
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
// records: write a temp file in the same directory, fsync it, and
// rename it over the log.  On success the open handle switches to the
// new file; on failure the original log is untouched.
func (l *Log) Compact(live []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: compact on closed log %s", l.path)
	}
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(l.path)+".compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	size := int64(len(logMagic))
	records := 0
	if _, err := tmp.Write([]byte(logMagic)); err != nil {
		tmp.Close()
		return err
	}
	var hdr [frameHeaderLen]byte
	for _, rec := range live {
		payload, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := tmp.Write(hdr[:]); err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(payload); err != nil {
			tmp.Close()
			return err
		}
		size += frameHeaderLen + int64(len(payload))
		records++
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.f.Close()
	l.f = f
	l.size = size
	l.records = records
	l.pending = 0
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
