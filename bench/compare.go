package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdicts of a comparison.
const (
	within     = "within bound"
	worse      = "worse"
	unresolved = "unresolved"
)

// judgement compares one (workload, metric) across two sets of runs.
type judgement struct {
	medA, medB, spreadA, spreadB, change float64
	verdict                              string
}

// judge applies a bound: the change is B's median against A's, signed so
// that positive is worse; the spread of a set is its interquartile range
// over its median.  When either spread exceeds the bound the pair is
// unresolved, since a shift that size could be noise.
func judge(a, b []float64, better string, bound float64) judgement {
	var j judgement
	j.medA, j.medB = median(a), median(b)
	j.spreadA, j.spreadB = spread(a), spread(b)
	j.change = (j.medB - j.medA) / j.medA
	if better == "higher" {
		j.change = -j.change
	}
	switch {
	case j.spreadA > bound || j.spreadB > bound:
		j.verdict = unresolved
	case j.change > bound:
		j.verdict = worse
	default:
		j.verdict = within
	}
	return j
}

// spread is the interquartile range of xs over its median (0 for fewer
// than two values).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// loadRuns collects every results.json under dir: workload → metric →
// one value per run.
func loadRuns(dir string) (map[string]map[string][]float64, int, error) {
	out := map[string]map[string][]float64{}
	files := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "results.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		files++
		for w, r := range rf.Workloads {
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[w][name] = append(out[w][name], m.Value)
			}
		}
		return nil
	})
	return out, files, err
}

// findBenchmark reads BENCHMARK.json from the current directory or, when
// run from bench/, from its parent.
func findBenchmark() (benchmarkFile, error) {
	var bf benchmarkFile
	candidates := []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	for _, c := range candidates {
		data, err := os.ReadFile(c)
		if err != nil {
			continue
		}
		return bf, json.Unmarshal(data, &bf)
	}
	return bf, fmt.Errorf("BENCHMARK.json not found (tried %v)", candidates)
}

// compareDirs prints, for each workload and end-to-end metric, both sets'
// median and spread and the verdict against the metric's bound.  It
// exits 1 when any pair is worse.
func compareDirs(a, b string, stdout, stderr io.Writer) int {
	bf, err := findBenchmark()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	runsA, filesA, errA := loadRuns(a)
	runsB, filesB, errB := loadRuns(b)
	if errA != nil || errB != nil || filesA == 0 || filesB == 0 {
		fmt.Fprintf(stderr, "bench: reading runs: %v %v (%d and %d results.json files)\n", errA, errB, filesA, filesB)
		return 2
	}
	var names []string
	for w := range runsA {
		if runsB[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "A = %s (%d runs), B = %s (%d runs)\n", a, filesA, b, filesB)
	fmt.Fprintf(stdout, "%-13s %-17s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "IQR A", "median B", "IQR B", "change", "bound", "verdict")
	status := 0
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			va, vb := runsA[w][m.Name], runsB[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			j := judge(va, vb, m.Better, m.Bound)
			if j.verdict == worse {
				status = 1
			}
			fmt.Fprintf(stdout, "%-13s %-17s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				w, m.Name, j.medA, 100*j.spreadA, j.medB, 100*j.spreadB, 100*j.change, 100*m.Bound, j.verdict)
		}
	}
	return status
}
