package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks the sizes so a run of each workload takes about a
// second.  batch-dedup keeps the full E1 corpus: its dedup ratio is a
// property of that corpus.
func tinyConfig(t *testing.T, trace bool) config {
	cfg := defaultConfig(3, 300*time.Millisecond, trace, t.TempDir())
	cfg.boots = 1
	cfg.fillerRecords = 300
	cfg.hotPerFamily = 5
	cfg.hotRequests = 300
	cfg.searchBatch = 100
	cfg.storeAppends = 200
	cfg.timedItems = 50
	return cfg
}

// streams renders every workload's input stream for a seed as bytes.
func streams(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	cfg := tinyConfig(t, false)
	cfg.seed = seed
	out := map[string][]byte{}
	bodies := func(reqs []request) []byte {
		var b bytes.Buffer
		for _, r := range reqs {
			b.Write(r.body)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	hot, err := hotRequests(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["decide-hot"] = bodies(hot)
	cold, err := newColdGen(seed, cfg.oracleSample).requests(200)
	if err != nil {
		t.Fatal(err)
	}
	out["decide-cold"] = bodies(cold)
	calls := func(next func() ([]call, error)) []byte {
		var b bytes.Buffer
		for i := 0; i < 2; i++ {
			batch, err := next()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range batch {
				for _, j := range c.jobs {
					b.WriteString(j.Left.String() + " | " + j.Right.String() + "\n")
				}
			}
		}
		return b.Bytes()
	}
	fams, err := dedupCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := load(fams)
	if err != nil {
		t.Fatal(err)
	}
	out["batch-dedup"] = calls(dedupBatches(corpus, seed))
	out["batch-search"] = calls(searchBatches(seed, cfg.searchBatch, cfg.oracleSample))
	return out
}

func TestSeedFixesTheInputs(t *testing.T) {
	a, b, c := streams(t, 7), streams(t, 7), streams(t, 8)
	for _, w := range workloads {
		if len(a[w.name]) == 0 {
			t.Errorf("%s: empty stream", w.name)
		}
		if !bytes.Equal(a[w.name], b[w.name]) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if bytes.Equal(a[w.name], c[w.name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q", i, w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bj.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, perLayer[i])
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
}

// tinyRun runs one workload at tiny size and checks what every run must
// report.
func tinyRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	res, err := runWorkload(w, tinyConfig(t, trace), nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
	}
	for k, m := range res.Metrics {
		if m.Unit == "" {
			t.Errorf("%s: %s has no unit", name, k)
		}
	}
	line, err := res.line()
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Errorf("%s: result line has keys %v", name, top)
	}
	return res
}

func TestTinyRunsReportEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		res := tinyRun(t, w.name, false)
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, v)
			}
		}
	}
}

func TestTracedTinyRunsPartitionTheBase(t *testing.T) {
	props := map[string]func(map[string]metric) bool{
		"decide-hot":  func(m map[string]metric) bool { return m["engine.cache_hit_ratio"].Value >= 0.9 },
		"decide-cold": func(m map[string]metric) bool { return m["engine.cache_hit_ratio"].Value <= 0.01 },
		"batch-dedup": func(m map[string]metric) bool { return m["engine.dedup_ratio"].Value >= 0.8 },
	}
	shares := []string{"unattributed_share", "engine.canonicalize_share", "engine.verify_self_share",
		"chase.share", "cq.plan_share", "cq.search_self_share"}
	for _, w := range workloads {
		res := tinyRun(t, w.name, true)
		sum := 0.0
		for _, k := range shares {
			v := res.Metrics[k].Value
			if v < 0 {
				t.Errorf("%s: %s = %v, a negative self time", w.name, k, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v, want 1", w.name, sum)
		}
		if prop := props[w.name]; prop != nil && !prop(res.Metrics) {
			t.Errorf("%s: workload property does not hold: %+v", w.name, res.Metrics)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 3", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		b       []float64
		better  string
		verdict string
	}{
		{[]float64{104, 105, 103, 104, 104}, "lower", within},
		{[]float64{120, 121, 119, 120, 120}, "lower", worse},
		{[]float64{120, 121, 119, 120, 120}, "higher", within},
		{[]float64{80, 81, 79, 80, 80}, "higher", worse},
		{[]float64{60, 140, 100, 70, 130}, "lower", unresolved},
	} {
		if got := judge(steady, c.b, c.better, 0.1).verdict; got != c.verdict {
			t.Errorf("judge(%v, %s) = %s, want %s", c.b, c.better, got, c.verdict)
		}
	}
}

func TestCompareDirs(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, i int, ops float64) {
		rf := resultsFile{Workloads: map[string]*result{"decide-hot": {Correct: true, Attempted: 1,
			Metrics: map[string]metric{"ops_per_s": {Value: ops, Unit: "op/s"}}}}}
		if err := writeJSON(filepath.Join(dir, set, string(rune('a'+i)), "results.json"), rf); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{100, 101, 99, 100, 100} {
		if err := os.MkdirAll(filepath.Join(dir, "A", string(rune('a'+i))), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "B", string(rune('a'+i))), 0o755); err != nil {
			t.Fatal(err)
		}
		write("A", i, v)
		write("B", i, v/2)
	}
	var out, errOut bytes.Buffer
	code := compareDirs(filepath.Join(dir, "A"), filepath.Join(dir, "B"), &out, &errOut)
	if code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("halved throughput: exit %d, output\n%s%s", code, out.String(), errOut.String())
	}
}
