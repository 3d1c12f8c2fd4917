package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"keyedeq/internal/exp"
)

func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String() + errb.String()
}

func TestOnlyOneExperiment(t *testing.T) {
	code, out := runCLI(t, "-only", "T10")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "T10:") {
		t.Errorf("missing T10 table:\n%s", out)
	}
	if strings.Contains(out, "T3:") {
		t.Errorf("unexpected other tables:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, out := runCLI(t, "-only", "T99")
	if code != 2 {
		t.Fatalf("exit = %d: %s", code, out)
	}
}

func TestQuickSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run; skipped in -short")
	}
	code, out := runCLI(t)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, id := range []string{"T1:", "T2:", "T3:", "T4:", "T5:", "T6:", "T7:", "T8:", "T9:", "T10:", "F1:", "F2:", "F3:"} {
		if !strings.Contains(out, id) {
			t.Errorf("missing table %s", id)
		}
	}
	if !strings.Contains(out, "total wall time") {
		t.Error("missing footer")
	}
}

func TestBadFlag(t *testing.T) {
	if code, _ := runCLI(t, "-nope"); code != 2 {
		t.Error("bad flag should exit 2")
	}
}

func TestJSONBenchAndVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the E1 benchmark; skipped in -short")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_engine.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-json", path}, &out, &errb); code != 0 {
		t.Fatalf("-json exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("output: %s", out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-verify-bench", path}, &out, &errb); code != 0 {
		t.Fatalf("-verify-bench exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "ok (") {
		t.Errorf("verify output: %s", out.String())
	}
}

func TestVerifyBenchRejectsSlowEngine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	record := `{"families":["graph-chain"],"sequential":{"pairs":10},` +
		`"engine":{"pairs":10},"speedup":0.5,"second_pass_hit_rate":1}`
	if err := os.WriteFile(path, []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-verify-bench", path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "slower") {
		t.Errorf("stderr: %s", errb.String())
	}
}

// TestVerifyBenchRequiresCanonicalizeCost checks that the gate rejects
// an otherwise sound record in which one family lacks a positive
// canonicalization cost.
func TestVerifyBenchRequiresCanonicalizeCost(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nocanon.json")
	sweep := `[{"workers":1,"wall_ns":100,"ns_per_op":10,"nodes":5,"holding":2},` +
		`{"workers":4,"wall_ns":90,"ns_per_op":9,"nodes":5,"holding":2},` +
		`{"workers":8,"wall_ns":80,"ns_per_op":8,"nodes":5,"holding":2}]`
	record := `{"families":["graph-chain","wide"],"canonicalize_ns_per_query":{"graph-chain":4800,"wide":0},` +
		`"sequential":{"pairs":10},"engine":{"pairs":10},"speedup":1.5,"second_pass_hit_rate":1,` +
		`"gomaxprocs":2,"num_cpu":2,"worker_sweep":` + sweep + `}`
	if err := os.WriteFile(path, []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-verify-bench", path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "family wide has no canonicalize_ns_per_query") {
		t.Errorf("stderr: %s", errb.String())
	}
	if strings.Contains(errb.String(), "graph-chain") {
		t.Errorf("measured family flagged: %s", errb.String())
	}
}

func TestVerifyBenchRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.json")
	os.WriteFile(path, []byte("not json"), 0o644)
	var out, errb bytes.Buffer
	if code := run([]string{"-verify-bench", path}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if code := run([]string{"-verify-bench", filepath.Join(dir, "missing.json")}, &out, &errb); code != 2 {
		t.Fatalf("missing file exit = %d, want 2", code)
	}
}

// TestCompareAllocRecords pins the alloc gate's verdicts without
// running the benchmark: a clean pair passes; a missing case, a record
// over its seed, and a fresh measurement over the headroom each fail.
func TestCompareAllocRecords(t *testing.T) {
	rec := func(chaseAllocs, searchAllocs int64) *exp.AllocBenchResult {
		return &exp.AllocBenchResult{Cases: []exp.AllocCaseResult{
			{Name: "chase/rows-1000", AllocsPerOp: chaseAllocs, SeedAllocsPerOp: 882},
			{Name: "search/clique-4", AllocsPerOp: searchAllocs, SeedAllocsPerOp: 258},
			{Name: "intern/rows-1M", AllocsPerOp: 8212, SeedAllocsPerOp: 9881004},
			{Name: "parse/decide-hot", AllocsPerOp: 5, SeedAllocsPerOp: 318},
			{Name: "canon/decide-hot", AllocsPerOp: 19, SeedAllocsPerOp: 101},
			{Name: "decide/miss-wide", AllocsPerOp: 69, SeedAllocsPerOp: 140},
		}}
	}
	if problems := compareAllocRecords(rec(18, 228), rec(19, 228)); len(problems) != 0 {
		t.Errorf("clean pair flagged: %v", problems)
	}
	if problems := compareAllocRecords(rec(18, 228), rec(100, 228)); len(problems) != 1 {
		t.Errorf("fresh chase over 110%% headroom: got %v, want 1 problem", problems)
	}
	if problems := compareAllocRecords(rec(3000, 228), rec(18, 228)); len(problems) != 1 {
		t.Errorf("record over pre-fix seed: got %v, want 1 problem", problems)
	}
	missing := &exp.AllocBenchResult{Cases: []exp.AllocCaseResult{
		{Name: "chase/rows-1000", AllocsPerOp: 18, SeedAllocsPerOp: 882},
		{Name: "intern/rows-1M", AllocsPerOp: 8212, SeedAllocsPerOp: 9881004},
		{Name: "parse/decide-hot", AllocsPerOp: 5, SeedAllocsPerOp: 318},
		{Name: "canon/decide-hot", AllocsPerOp: 19, SeedAllocsPerOp: 101},
		{Name: "decide/miss-wide", AllocsPerOp: 69, SeedAllocsPerOp: 140},
	}}
	if problems := compareAllocRecords(missing, rec(18, 228)); len(problems) != 1 {
		t.Errorf("missing committed case: got %v, want 1 problem", problems)
	}
	if problems := compareAllocRecords(rec(18, 228), missing); len(problems) != 1 {
		t.Errorf("missing fresh case: got %v, want 1 problem", problems)
	}
	if problems := compareAllocRecords(rec(0, 228), rec(18, 228)); len(problems) != 1 {
		t.Errorf("non-positive recorded allocs: got %v, want 1 problem", problems)
	}
}

// TestVerifyBenchSingleCoreWarning pins the gomaxprocs stamp handling
// with synthetic records: a single-core record still verifies (its
// fingerprints are real) but warns loudly that its wall times carry no
// scaling claim; a multi-core record verifies silently.
func TestVerifyBenchSingleCoreWarning(t *testing.T) {
	dir := t.TempDir()
	record := func(gmp, ncpu int) string {
		sweep := `[{"workers":1,"wall_ns":100,"ns_per_op":10,"nodes":5,"holding":2},` +
			`{"workers":4,"wall_ns":90,"ns_per_op":9,"nodes":5,"holding":2},` +
			`{"workers":8,"wall_ns":80,"ns_per_op":8,"nodes":5,"holding":2}]`
		return `{"families":["graph-chain"],"canonicalize_ns_per_query":{"graph-chain":4800},` +
			`"sequential":{"pairs":10},"engine":{"pairs":10},"speedup":1.5,"second_pass_hit_rate":1,` +
			`"gomaxprocs":` + itoa(gmp) + `,"num_cpu":` + itoa(ncpu) + `,"worker_sweep":` + sweep + `}`
	}

	single := filepath.Join(dir, "single.json")
	if err := os.WriteFile(single, []byte(record(1, 16)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-verify-bench", single}, &out, &errb); code != 0 {
		t.Fatalf("single-core record must still verify, exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "WARNING") ||
		!strings.Contains(errb.String(), "gomaxprocs 1") ||
		!strings.Contains(errb.String(), "16 CPUs") {
		t.Errorf("missing single-core warning, stderr: %q", errb.String())
	}

	multi := filepath.Join(dir, "multi.json")
	if err := os.WriteFile(multi, []byte(record(8, 8)), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-verify-bench", multi}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	if strings.Contains(errb.String(), "WARNING") {
		t.Errorf("unexpected warning on multi-core record: %q", errb.String())
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
