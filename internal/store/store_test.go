package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"keyedeq/internal/containment"
)

func openT(t *testing.T, path string, opts Options) *Log {
	t.Helper()
	l, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	l := openT(t, path, Options{SyncEvery: 1})
	recs := []Record{
		{Key: "fp\x1dequ\x1ea\x1fb", Holds: true, Stats: containment.SearchStats(42)},
		{Key: "fp\x1dcon\x1ec\x1fd", Holds: false},
		{Key: "fp\x1dequ\x1ea\x1fb", Holds: true}, // supersedes the first
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, path, Options{})
	if rs := l2.RecoveryStats(); rs.Records != 3 || rs.TruncatedBytes != 0 {
		t.Fatalf("recovery stats %+v, want 3 records, 0 truncated", rs)
	}
	got := collect(t, l2)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	for i, r := range got {
		if r.Key != recs[i].Key || r.Holds != recs[i].Holds || r.Stats != recs[i].Stats {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	l := openT(t, path, Options{SyncEvery: 1})
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{Key: fmt.Sprintf("k%d", i), Holds: true}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a crash mid-append: a partial frame at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x30, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openT(t, path, Options{})
	rs := l2.RecoveryStats()
	if rs.Records != 5 || rs.TruncatedBytes != 6 {
		t.Fatalf("recovery stats %+v, want 5 records and 6 truncated bytes", rs)
	}
	if got := collect(t, l2); len(got) != 5 {
		t.Fatalf("replayed %d records after torn tail, want 5", len(got))
	}
	// The log is appendable again and the new record survives reopen.
	if err := l2.Append(Record{Key: "after", Holds: true}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3 := openT(t, path, Options{})
	got := collect(t, l3)
	if len(got) != 6 || got[5].Key != "after" {
		t.Fatalf("after truncate+append: %d records, last %+v", len(got), got[len(got)-1])
	}
}

func TestCorruptRecordTruncatesFromThere(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	l := openT(t, path, Options{SyncEvery: 1})
	var offsets []int64
	for i := 0; i < 4; i++ {
		if err := l.Append(Record{Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, l.size)
	}
	l.Close()
	// Flip one payload byte in the third record: CRC now mismatches, so
	// recovery keeps records 0-1 and drops 2-3 (framing is sequential;
	// nothing after a damaged frame is trustworthy).
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, offsets[1]+frameHeaderLen+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openT(t, path, Options{})
	rs := l2.RecoveryStats()
	if rs.Records != 2 || rs.TruncatedBytes == 0 {
		t.Fatalf("recovery stats %+v, want 2 records and a truncated tail", rs)
	}
	got := collect(t, l2)
	if len(got) != 2 || got[0].Key != "k0" || got[1].Key != "k1" {
		t.Fatalf("replay after corruption: %+v", got)
	}
}

func TestBadMagicIsFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-log")
	if err := os.WriteFile(path, []byte("something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a file with the wrong magic")
	}
}

func TestValidFrameGarbagePayload(t *testing.T) {
	// A frame whose CRC matches but whose payload is not a record is
	// still a torn tail, not a crash.
	path := filepath.Join(t.TempDir(), "verdicts.log")
	l := openT(t, path, Options{SyncEvery: 1})
	if err := l.Append(Record{Key: "good"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	payload := []byte("not json")
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openT(t, path, Options{})
	if rs := l2.RecoveryStats(); rs.Records != 1 || rs.TruncatedBytes != int64(len(frame)) {
		t.Fatalf("recovery stats %+v, want 1 record and %d truncated bytes", rs, len(frame))
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	l := openT(t, path, Options{SyncEvery: 1})
	for i := 0; i < 100; i++ {
		if err := l.Append(Record{Key: fmt.Sprintf("k%d", i%10), Holds: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]Record, 0, 10)
	for i := 0; i < 10; i++ {
		live = append(live, Record{Key: fmt.Sprintf("k%d", i), Holds: true})
	}
	if err := l.Compact(live); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}
	if l.Records() != 10 {
		t.Fatalf("Records() = %d after compaction, want 10", l.Records())
	}
	// The handle keeps working post-rename, and the result survives
	// reopen.
	if err := l.Append(Record{Key: "post-compact"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, path, Options{})
	got := collect(t, l2)
	if len(got) != 11 || got[10].Key != "post-compact" {
		t.Fatalf("after compact+append+reopen: %d records, last %+v", len(got), got[len(got)-1])
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after compaction, want only the log", len(entries))
	}
}

func TestEmptyLogReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	l := openT(t, path, Options{})
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("empty log replayed %d records", len(got))
	}
	if l.Records() != 0 {
		t.Fatalf("Records() = %d on empty log", l.Records())
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.log")
	l := openT(t, path, Options{})
	l.Close()
	if err := l.Append(Record{Key: "late"}); err == nil {
		t.Fatal("Append succeeded on a closed log")
	}
	if err := l.Compact(nil); err == nil {
		t.Fatal("Compact succeeded on a closed log")
	}
}

// v1Records are the records of testdata/keqvlog1.log as the JSON
// store's Replay returned them.  Its encoder wrote the invalid byte 0xff
// of the fifth key as U+FFFD, so that is what the record holds.
var v1Records = []Record{
	{Key: "fp\x00deps\x1dequ\x1eV(X) :- E(X, Y).\x1fV(X) :- E(X, Y), E(X, Z).", Holds: true,
		Stats: containment.Stats{Nodes: 7, Searches: 2, ChaseIterations: 1, ChaseMerges: 1, ChaseRevisited: 4}},
	{Key: "fp\x00deps\x1dcon\x1eV(X) :- E(X, X).\x1fV(X) :- E(X, Y).",
		Stats: containment.Stats{Nodes: 3, Searches: 1}},
	{Key: "fp\x00deps\x1dequ\x1eV(X) :- R(X, T1:5).\x1fV(X) :- R(X, T1:6).", Holds: true,
		Stats: containment.Stats{ChaseIterations: 2, ChaseMerges: 3, ChaseRevisited: 9, ChaseFailed: true}},
	{},
	{Key: "fp\x1dequ\x1e" + strings.Repeat("W(A, B, C, D). ", 20) + "\x1fé∀\ufffd", Holds: true,
		Stats: containment.Stats{Nodes: 1 << 40, Searches: 2, ChaseIterations: 300, ChaseMerges: 70000, ChaseRevisited: 123456789}},
	{Key: "fp\x00deps\x1dequ\x1eV(X) :- E(X, Y).\x1fV(X) :- E(X, Y), E(X, Z).",
		Stats: containment.Stats{Nodes: 8, Searches: 2, ChaseIterations: 1, ChaseMerges: 1, ChaseRevisited: 4}},
}

func equalRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestUpgradeV1Log opens a KEQVLOG1 log, written by the JSON store and
// ending in an 18-byte torn frame: Open must replay what that store
// replayed, count the torn bytes, and leave a KEQVLOG2 log behind.
func TestUpgradeV1Log(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "keqvlog1.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "verdicts.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l := openT(t, path, Options{})
	if rs := l.RecoveryStats(); rs != (ReplayStats{Records: 6, TruncatedBytes: 18}) {
		t.Fatalf("recovery stats %+v, want 6 records and 18 truncated bytes", rs)
	}
	equalRecords(t, collect(t, l), v1Records)
	after := Record{Key: "after", Holds: true, Stats: containment.SearchStats(5)}
	if err := l.Append(after); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	upgraded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(upgraded, []byte(logMagic)) {
		t.Fatalf("upgraded log starts %q, want %q", upgraded[:magicLen], logMagic)
	}
	l2 := openT(t, path, Options{})
	if rs := l2.RecoveryStats(); rs != (ReplayStats{Records: 7}) {
		t.Fatalf("recovery stats after the upgrade %+v, want 7 records and nothing truncated", rs)
	}
	equalRecords(t, collect(t, l2), append(v1Records[:len(v1Records):len(v1Records)], after))
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after the upgrade, want only the log", len(entries))
	}
}

// TestRecordCarriesEveryStatsField round-trips a record whose Stats
// fields are all set, so that a field added to Stats but not to the
// record format fails here.
func TestRecordCarriesEveryStatsField(t *testing.T) {
	var st containment.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i+1) << (8 * i))
		default:
			t.Fatalf("Stats.%s has kind %s, which the record format does not carry", v.Type().Field(i).Name, f.Kind())
		}
	}
	path := filepath.Join(t.TempDir(), "verdicts.log")
	l := openT(t, path, Options{})
	want := []Record{{Key: "k", Holds: true, Stats: st}, {Key: "k", Stats: st}}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	equalRecords(t, collect(t, openT(t, path, Options{})), want)
}

// TestInexactPayloadIsTorn checks that a payload must decode exactly:
// the decoder, which Open's check and Replay share, rejects each
// damaged variant of a valid payload.
func TestInexactPayloadIsTorn(t *testing.T) {
	frame, err := appendFrame(nil, Record{Key: "key", Holds: true, Stats: containment.SearchStats(300)})
	if err != nil {
		t.Fatal(err)
	}
	valid := frame[frameHeaderLen:]
	var rec Record
	if key, ok := decodeRecord(valid, &rec); !ok || string(key) != "key" {
		t.Fatalf("valid payload decoded to %q, %v", key, ok)
	}
	damaged := map[string][]byte{
		"empty":            {},
		"key past the end": {9, 'k', 'e', 'y'},
		"no flags byte":    valid[:4],
		"unknown flag":     append([]byte{3, 'k', 'e', 'y', 0x04}, valid[5:]...),
		"short varint":     valid[:len(valid)-1],
		"trailing byte":    append(append([]byte(nil), valid...), 0),
		"overlong varint":  append(append([]byte(nil), valid[:len(valid)-1]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
	}
	for name, p := range damaged {
		if _, ok := decodeRecord(p, &rec); ok {
			t.Errorf("%s: decoder accepted %x", name, p)
		}
	}
}

// FuzzStoreReplay writes either magic followed by arbitrary bytes.  Open
// must succeed, Replay must yield exactly Records() records, the file
// Open leaves must reopen with nothing truncated, and a record appended
// after recovery must survive that reopen.
func FuzzStoreReplay(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "keqvlog1.log"))
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.log")
	l, err := Open(path, Options{SyncEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range v1Records {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	v2, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	torn := []byte{0x30, 0x00, 0x00, 0x00, 0xde, 0xad}
	garbage := []byte("not json")
	garbage = append(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil,
		uint32(len(garbage))), crc32.ChecksumIEEE(garbage)), garbage...)
	flipped := append([]byte(nil), v2[magicLen:]...)
	flipped[frameHeaderLen+2] ^= 0xff
	for _, old := range []bool{false, true} {
		body := v2[magicLen:]
		if old {
			body = v1[magicLen:]
		}
		f.Add(old, body)
		f.Add(old, torn)
		f.Add(old, garbage)
		f.Add(old, append(append([]byte(nil), body...), torn...))
		f.Add(old, append(append([]byte(nil), body...), garbage...))
		f.Add(old, []byte{})
	}
	f.Add(false, flipped)

	f.Fuzz(func(t *testing.T, old bool, data []byte) {
		magic := logMagic
		if old {
			magic = logMagicV1
		}
		path := filepath.Join(t.TempDir(), "verdicts.log")
		if err := os.WriteFile(path, append([]byte(magic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, Options{SyncEvery: -1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		rs := l.RecoveryStats()
		if st, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if !old && st.Size() != int64(magicLen+len(data))-rs.TruncatedBytes {
			t.Fatalf("log is %d bytes after Open, want %d less %d truncated", st.Size(), magicLen+len(data), rs.TruncatedBytes)
		}
		n := 0
		if err := l.Replay(func(Record) error { n++; return nil }); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if n != l.Records() || n != rs.Records {
			t.Fatalf("Replay yielded %d records, Records() = %d, recovery stats %+v", n, l.Records(), rs)
		}
		after := Record{Key: "after", Holds: true, Stats: containment.SearchStats(1)}
		if err := l.Append(after); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(path, Options{SyncEvery: -1})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if rs := l2.RecoveryStats(); rs != (ReplayStats{Records: n + 1}) {
			t.Fatalf("reopen recovery stats %+v, want %d records and nothing truncated", rs, n+1)
		}
		var last Record
		if err := l2.Replay(func(r Record) error { last = r; return nil }); err != nil {
			t.Fatalf("Replay after reopen: %v", err)
		}
		if last != after {
			t.Fatalf("last record after reopen %+v, want %+v", last, after)
		}
	})
}
