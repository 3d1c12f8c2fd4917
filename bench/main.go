// Command bench is the end-to-end benchmark of keyedeq.  It drives the
// two paths that serve CQ-equivalence decisions — the keyedeqd HTTP
// handler over loopback TCP and engine.Run in process — on four seeded
// workloads, checks every verdict it can against the naive-search
// oracle, and prints the end-to-end metrics by name and unit.  With
// -trace 1 it reruns the workload with spans on and prints the
// per-layer breakdown instead.  See README.md for the workloads, the
// metrics and the bounds.
//
// Usage (from this directory):
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	go run . -compare A B
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// now is the benchmark's wall clock.  Library packages of the repo take
// their clock by injection; the benchmark is where it comes from.
//
//keyedeq:allow nowallclock -- measuring wall time is the benchmark's job
var now = time.Now

// procs is the GOMAXPROCS every run uses, so numbers taken on a larger
// machine stay comparable with the recorded ones.
const procs = 2

// workers is engine.Options.Workers on both paths.
const workers = 2

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees; every untraced run
// reports all of them for its workload.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", "higher"},
	{"latency_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_kib_per_op", "KiB/op", "lower"},
	{"live_heap_mib", "MiB", "lower"},
}

// perLayer are the metrics of single layers; every traced run reports
// all of them.  The six shares partition the base (see trace.go).
var perLayer = []metricDef{
	{"unattributed_share", "ratio", "lower"},
	{"engine.canonicalize_share", "ratio", "lower"},
	{"engine.canonicalize_us_per_query", "us", "lower"},
	{"engine.verify_self_share", "ratio", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.dedup_ratio", "ratio", "higher"},
	{"chase.share", "ratio", "lower"},
	{"chase.iterations_per_call", "count", "lower"},
	{"cq.plan_share", "ratio", "lower"},
	{"cq.search_self_share", "ratio", "lower"},
	{"cq.search_us_per_call", "us", "lower"},
	{"cq.search_nodes_per_call", "count", "lower"},
	{"cq.search_ns_per_node", "ns", "lower"},
	{"cq.parse_us_per_query", "us", "lower"},
	{"serve.schema_us_per_req", "us", "lower"},
	{"store.append_us_p50", "us", "lower"},
	{"store.append_us_p99", "us", "lower"},
	{"store.bytes_per_append", "B", "lower"},
	{"store.replay_us_per_record", "us", "lower"},
	{"obs.trace_overhead", "ratio", "lower"},
}

// metric is one measured value.  N is the sample count behind it (0 for
// values that are not sample statistics).  A time-based end-to-end
// metric is scaled to the reference speed (speed.go); Raw keeps the
// unscaled reading.  N and Raw go to results.json and the printed table
// but not to the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Raw   float64 `json:"raw,omitempty"`
}

// result is the outcome of one workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric under its declared unit.
func (r *result) set(name string, v float64, n int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.Unit, N: n}
				return
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// setScaled records a time-based metric: its value scaled to the
// reference speed (speed.go) and the raw reading it came from.
func (r *result) setScaled(name string, value, raw float64, n int) {
	r.set(name, value, n)
	m := r.Metrics[name]
	m.Raw = raw
	r.Metrics[name] = m
}

// line renders the result as the one-line JSON object that ends the
// output: sample counts are dropped so each metric is exactly a value
// and a unit.
func (r *result) line() ([]byte, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]valueUnit, len(r.Metrics))}
	for k, m := range r.Metrics {
		out.Metrics[k] = valueUnit{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// resultsFile is DIR/results.json: every workload of one invocation.
type resultsFile struct {
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Workloads  map[string]*result `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this `workload` (default: all four)")
	seed := fs.Int64("seed", 1, "input `seed`; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured `seconds` per run")
	trace := fs.Int("trace", 0, "1 reruns the workload with spans on and reports the per-layer metrics")
	out := fs.String("out", "", "write results.json (and trace.jsonl with -trace 1) into `dir`")
	workdir := fs.String("workdir", "", "`dir` for verdict logs (default: the system temp dir)")
	cmp := fs.Bool("compare", false, "compare two directories of results.json: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	runtime.GOMAXPROCS(procs)

	dir, err := os.MkdirTemp(*workdir, "keyedeq-bench-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := defaultConfig(*seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	file := resultsFile{Seed: *seed, Seconds: *seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workloads: map[string]*result{}}
	var traceFile *os.File
	var traceOut io.Writer
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if cfg.trace {
			if traceFile, err = os.Create(filepath.Join(*out, "trace.jsonl")); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			defer traceFile.Close() // error paths; the success path checks Close below
			traceOut = traceFile
		}
	}
	status := 0
	for _, w := range selected {
		res, err := runWorkload(w, cfg, traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		file.Workloads[w.name] = res
		printTable(stdout, w.name, res)
		line, err := res.line()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if *out != "" {
			if err := writeJSON(filepath.Join(*out, "results.json"), file); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			status = 1
		}
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}

// runWorkload runs one workload and checks that it reported exactly the
// metrics its mode declares, each finite.
func runWorkload(w workload, cfg config, traceOut io.Writer) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	if err := w.run(cfg, res, traceOut); err != nil {
		return nil, err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not reported", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func printTable(w io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, k := range names {
		m := res.Metrics[k]
		note := ""
		if m.N > 0 {
			note = fmt.Sprintf("(n=%d)", m.N)
		}
		if m.Raw != 0 {
			note += fmt.Sprintf(" raw %.4f", m.Raw)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-7s %s\n", k, m.Value, m.Unit, note)
	}
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
