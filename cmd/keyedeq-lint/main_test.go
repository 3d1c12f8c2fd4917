package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String() + errb.String()
}

// writeModule lays out a throwaway module for end-to-end runs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCleanModuleExitsZero(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

// Double doubles.
func Double(n int) int { return 2 * n }
`,
	})
	code, out := runCLI(t, "-C", dir, "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
}

func TestDirtyModuleExitsOneAndReports(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

func MustThing() {
	panic("raw")
}
`,
	})
	code, out := runCLI(t, "-C", dir, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	for _, want := range []string{"internal/lib/lib.go:4:", "[panicgate]", "1 finding(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRuleSelection(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

func MustThing() {
	panic("raw")
}
`,
	})
	// The violation is panicgate; running only detmap must be clean.
	code, out := runCLI(t, "-C", dir, "-rules", "detmap")
	if code != 0 {
		t.Fatalf("-rules detmap: exit = %d, want 0; output:\n%s", code, out)
	}
	code, _ = runCLI(t, "-C", dir, "-rules", "panicgate")
	if code != 1 {
		t.Fatalf("-rules panicgate: exit = %d, want 1", code)
	}
}

func TestUnknownRuleIsUsageError(t *testing.T) {
	code, out := runCLI(t, "-rules", "nosuchrule")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown rule") {
		t.Errorf("output missing rule diagnostics:\n%s", out)
	}
}

func TestJSONFormat(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

func MustThing() {
	panic("raw")
}

func allowed() {
	//keyedeq:allow panicgate -- fixture exercises suppression counting
	panic("also raw")
}
`,
	})
	code, out := runCLI(t, "-C", dir, "-format", "json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	var report struct {
		Findings []struct {
			Rule    string `json:"rule"`
			File    string `json:"file"`
			Line    int    `json:"line"`
			Message string `json:"message"`
		} `json:"findings"`
		Suppressed int `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(report.Findings) != 1 || report.Findings[0].Rule != "panicgate" {
		t.Errorf("findings = %+v, want one panicgate", report.Findings)
	}
	if len(report.Findings) == 1 && report.Findings[0].File != "internal/lib/lib.go" {
		t.Errorf("finding file = %q, want module-relative path", report.Findings[0].File)
	}
	if report.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", report.Suppressed)
	}
}

func TestSARIFFormat(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

func MustThing() {
	panic("raw")
}
`,
	})
	code, out := runCLI(t, "-C", dir, "-format", "sarif")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("not a single-run SARIF 2.1.0 log:\n%s", out)
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "keyedeq-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) != 1 || run.Results[0].RuleID != "panicgate" || run.Results[0].Level != "error" {
		t.Fatalf("results = %+v, want one panicgate error", run.Results)
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/lib/lib.go" || loc.Region.StartLine != 4 {
		t.Errorf("location = %+v, want internal/lib/lib.go:4", loc)
	}
	if len(run.Tool.Driver.Rules) != 1 || run.Tool.Driver.Rules[0].ID != "panicgate" {
		t.Errorf("rule metadata = %+v, want [panicgate]", run.Tool.Driver.Rules)
	}
}

func TestGitHubFormat(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

func MustThing() {
	panic("raw")
}
`,
	})
	code, out := runCLI(t, "-C", dir, "-format", "github")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "::error file=internal/lib/lib.go,line=4,") {
		t.Errorf("output missing annotation command:\n%s", out)
	}
	if !strings.Contains(out, "title=keyedeq-lint panicgate::") {
		t.Errorf("output missing rule title:\n%s", out)
	}
}

func TestUnknownFormatIsUsageError(t *testing.T) {
	code, out := runCLI(t, "-format", "xml")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown format") {
		t.Errorf("output missing format diagnostics:\n%s", out)
	}
}

func TestSuppressedCountInTextOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

func allowed() {
	//keyedeq:allow panicgate -- fixture exercises suppression counting
	panic("raw")
}
`,
	})
	code, out := runCLI(t, "-C", dir)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "clean, 1 suppressed") {
		t.Errorf("output missing suppression count:\n%s", out)
	}
}

func TestRepoStaysClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	code, out := runCLI(t, "-C", root, "./...")
	if code != 0 {
		t.Fatalf("keyedeq-lint on this repo: exit = %d, want 0; output:\n%s", code, out)
	}
}

// hotModuleFiles is a module tripping every allocation rule at least
// once inside one hot function, plus a misattached directive, so the
// output-format tests below exercise the full new-rule surface.
func hotModuleFiles() map[string]string {
	return map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/hot/hot.go": `package hot

import (
	"fmt"
	"sort"
)

type Tuple []int

type rel struct{ tuples []Tuple }

type sink struct{ vals []any }

func (s *sink) add(v any) { s.vals = append(s.vals, v) }

//keyedeq:hot -- test module: trips every allocation rule once
func Scan(r *rel, s *sink) ([]int, map[string]int) {
	var sizes []int
	m := make(map[string]int)
	for i, t := range r.tuples {
		b := make([]byte, 0, len(t))
		_ = b
		sizes = append(sizes, len(t))
		s.add(i)
		k := fmt.Sprintf("t%d", i)
		m[k] = i
		c := make([]int, len(t))
		copy(c, t)
		sort.Ints(c)
	}
	return sizes, m
}

//keyedeq:hot -- misattached: a var declaration marks nothing hot
var knob = 1
`,
		"internal/other/other.go": `package other

func MustThing() {
	panic("raw")
}
`,
	}
}

// TestFindingOrderIsDeterministic loads a multi-package module twice
// per output format and asserts byte-identical reports: the concurrent
// LoadModule schedule must not leak into finding order.
func TestFindingOrderIsDeterministic(t *testing.T) {
	dir := writeModule(t, hotModuleFiles())
	for _, format := range []string{"text", "json", "sarif", "github"} {
		first := ""
		for run := 0; run < 2; run++ {
			code, out := runCLI(t, "-C", dir, "-format", format)
			if code != 1 {
				t.Fatalf("%s run %d: exit = %d, want 1; output:\n%s", format, run, code, out)
			}
			if run == 0 {
				first = out
			} else if out != first {
				t.Errorf("%s output differs between runs:\n--- first ---\n%s--- second ---\n%s", format, first, out)
			}
		}
	}
}

// TestSARIFGoldenForHotRules validates the SARIF required fields —
// ruleId, level, physicalLocation — for the allocation rules and the
// baddirective pseudo-rule.
func TestSARIFGoldenForHotRules(t *testing.T) {
	dir := writeModule(t, hotModuleFiles())
	code, out := runCLI(t, "-C", dir, "-format", "sarif")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want a single run:\n%s", out)
	}
	run := log.Runs[0]

	seen := map[string]int{}
	for _, res := range run.Results {
		seen[res.RuleID]++
		if res.Level != "error" {
			t.Errorf("result %q level = %q, want error", res.RuleID, res.Level)
		}
		if res.Message.Text == "" {
			t.Errorf("result %q has an empty message", res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Errorf("result %q has %d locations, want 1", res.RuleID, len(res.Locations))
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		wantURI := "internal/hot/hot.go"
		if res.RuleID == "panicgate" {
			wantURI = "internal/other/other.go"
		}
		if loc.ArtifactLocation.URI != wantURI {
			t.Errorf("result %q at %q, want %q", res.RuleID, loc.ArtifactLocation.URI, wantURI)
		}
		if loc.Region.StartLine <= 0 || loc.Region.StartColumn <= 0 {
			t.Errorf("result %q has unpositioned region %+v", res.RuleID, loc.Region)
		}
	}
	for _, rule := range []string{"hotalloc", "preallocate", "iface-box", "mapkey", "escapes", "baddirective", "panicgate"} {
		if seen[rule] == 0 {
			t.Errorf("no SARIF result for rule %q; got %v", rule, seen)
		}
	}
	var ruleIDs []string
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs = append(ruleIDs, r.ID)
	}
	for _, rule := range []string{"hotalloc", "preallocate", "iface-box", "mapkey", "escapes", "baddirective"} {
		found := false
		for _, id := range ruleIDs {
			found = found || id == rule
		}
		if !found {
			t.Errorf("driver rule metadata missing %q; got %v", rule, ruleIDs)
		}
	}
}
