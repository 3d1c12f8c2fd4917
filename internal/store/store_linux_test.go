//go:build linux

package store

import (
	"errors"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// failedAppendEnv names the log a re-executed test binary appends to in
// TestAppendAfterFailedAppend's helper.
const failedAppendEnv = "KEYEDEQ_STORE_FAILED_APPEND_LOG"

// TestAppendAfterFailedAppend checks that an append which fails partway
// leaves nothing in the file, so that a later append survives a
// reopen.  The file size limit that makes the write fail applies to a
// whole process, so a re-executed copy of the test binary does the
// appends.
func TestAppendAfterFailedAppend(t *testing.T) {
	if path := os.Getenv(failedAppendEnv); path != "" {
		appendPastSizeLimit(t, path)
		return
	}
	path := filepath.Join(t.TempDir(), "verdicts.log")
	cmd := exec.Command(os.Args[0], "-test.run=^TestAppendAfterFailedAppend$", "-test.count=1")
	cmd.Env = append(os.Environ(), failedAppendEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("helper: %v\n%s", err, out)
	}
	l := openT(t, path, Options{})
	if rs := l.RecoveryStats(); rs != (ReplayStats{Records: 4}) {
		t.Fatalf("recovery stats %+v, want 4 records and nothing truncated", rs)
	}
	var keys []string
	for _, r := range collect(t, l) {
		keys = append(keys, r.Key)
	}
	if got := strings.Join(keys, " "); got != "a0 a1 a2 c" {
		t.Fatalf("replayed keys %q, want \"a0 a1 a2 c\"", got)
	}
}

// appendPastSizeLimit appends three records, fails a fourth partway by
// capping the file size 100 bytes past the log, lifts the cap and
// appends "c".
func appendPastSizeLimit(t *testing.T, path string) {
	// Past the limit, write fails with EFBIG once SIGXFSZ is ignored;
	// otherwise the signal kills the process.
	signal.Ignore(syscall.SIGXFSZ)
	l, err := Open(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a0", "a1", "a2"} {
		if err := l.Append(Record{Key: k, Holds: true}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	capped := lim
	capped.Cur = uint64(st.Size()) + 100
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		t.Fatal(err)
	}
	err = l.Append(Record{Key: strings.Repeat("b", 300)})
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("append past the size limit: %v, want EFBIG", err)
	}
	if err := l.Append(Record{Key: "c", Holds: true}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
