package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
)

// e1Corpus builds the corpus of the E1 record and the batch-dedup
// benchmark: every gen.PairCorpus family, family fi drawn from seed
// 11+fi, n pairs each.
func e1Corpus(tb testing.TB, n int) []*gen.Family {
	tb.Helper()
	var out []*gen.Family
	for fi, name := range gen.FamilyNames() {
		f, err := gen.PairCorpus(rand.New(rand.NewSource(int64(11+fi))), name, n)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// poisonedJobs turns a family's pairs into equivalence jobs, adds a
// containment job for every fifth pair, and interleaves jobs that must
// fail validation: a nil left side, a nil right side, and an unknown
// relation.
func poisonedJobs(f *gen.Family) []Job {
	unknown := cq.MustParse("V(X) :- Nope(X, Y).")
	var jobs []Job
	for i, p := range f.Pairs {
		jobs = append(jobs, Job{Left: p.Left, Right: p.Right, Op: OpEquivalent})
		if i%5 == 0 {
			jobs = append(jobs, Job{Left: p.Right, Right: p.Left, Op: OpContained})
		}
		switch i % 40 {
		case 7:
			jobs = append(jobs, Job{Right: p.Right, Op: OpEquivalent})
		case 19:
			jobs = append(jobs, Job{Left: p.Left, Op: OpContained})
		case 31:
			jobs = append(jobs, Job{Left: unknown, Right: p.Right, Op: OpEquivalent})
		}
	}
	return jobs
}

// sameResult reports whether two results agree field for field, errors
// compared by message.
func sameResult(a, b Result) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	a.Err, b.Err = nil, nil
	return reflect.DeepEqual(a, b)
}

// reportTotals is a report without its results and pool size, the
// fields that must not depend on the worker count.
func reportTotals(r *Report) Report {
	t := *r
	t.Results, t.Workers = nil, 0
	return t
}

// TestRunWorkerCountInvariance runs the six-family E1 corpus, with
// poisoned jobs mixed in, at several pool sizes.  Validation and
// canonicalization run on the pool, but grouping, the leader of each
// group and the query each chase artifact freezes are fixed in job
// order, so every result — verdict, pair key, per-pair Stats, flags,
// error — and every report total must be identical at any worker count.
// Each distinct presentation among the validated jobs is canonicalized
// exactly once, whatever the number of workers racing for it.
func TestRunWorkerCountInvariance(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for _, f := range e1Corpus(t, n) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			jobs := poisonedJobs(f)
			presentations := make(map[string]bool)
			poisoned := 0
			for _, j := range jobs {
				if containment.CheckComparable(j.Left, j.Right, f.Schema) != nil {
					poisoned++
					continue
				}
				presentations[j.Left.String()] = true
				presentations[j.Right.String()] = true
			}
			var base *Report
			for _, w := range []int{1, 2, 8} {
				reg := obs.NewRegistry()
				e := New(f.Schema, f.Deps, Options{Workers: w, Obs: &obs.Obs{Reg: reg}})
				rep := e.Run(context.Background(), jobs)
				if got := reg.Snapshot()["keyedeq_canonicalizations_total"]; got != int64(len(presentations)) {
					t.Errorf("workers %d: %d canonicalizations, want %d distinct presentations", w, got, len(presentations))
				}
				if rep.Errors != poisoned {
					t.Errorf("workers %d: %d errors, want the %d poisoned jobs", w, rep.Errors, poisoned)
				}
				if base == nil {
					base = rep
					continue
				}
				for i := range jobs {
					if !sameResult(base.Results[i], rep.Results[i]) {
						t.Fatalf("workers %d: job %d differs from workers 1:\n  got  %+v\n  want %+v",
							w, i, rep.Results[i], base.Results[i])
					}
				}
				if got, want := reportTotals(rep), reportTotals(base); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers %d: totals differ from workers 1:\n  got  %+v\n  want %+v", w, got, want)
				}
			}
		})
	}
}

// TestRunNilQuerySides checks that nil sides fail their own jobs with
// an error wrapping containment.ErrNilQuery and leave every other job's
// result exactly as a batch without them would have it.
func TestRunNilQuerySides(t *testing.T) {
	s := gen.GraphSchema()
	clean := []Job{
		{Left: gen.ChainQuery(2), Right: gen.ChainQuery(3), Op: OpEquivalent},
		{Left: gen.StarQuery(2), Right: gen.StarQuery(3), Op: OpEquivalent},
		{Left: gen.ChainQuery(3), Right: gen.ChainQuery(2).Rename("r_"), Op: OpEquivalent},
		{Left: gen.StarQuery(2), Right: gen.StarQuery(1), Op: OpContained},
	}
	mixed := []Job{
		{Right: gen.ChainQuery(2), Op: OpEquivalent},
		clean[0],
		{Left: gen.ChainQuery(2), Op: OpContained},
		clean[1],
		clean[2],
		{Op: OpEquivalent},
		clean[3],
	}
	for _, w := range []int{1, 2} {
		want := New(s, nil, Options{Workers: w}).Run(context.Background(), clean)
		got := New(s, nil, Options{Workers: w}).Run(context.Background(), mixed)
		k := 0
		for i, j := range mixed {
			r := got.Results[i]
			if j.Left == nil || j.Right == nil {
				if !errors.Is(r.Err, containment.ErrNilQuery) {
					t.Fatalf("workers %d: job %d with a nil side: err %v, want ErrNilQuery", w, i, r.Err)
				}
				continue
			}
			if !sameResult(r, want.Results[k]) {
				t.Fatalf("workers %d: job %d changed by nil neighbours:\n  got  %+v\n  want %+v", w, i, r, want.Results[k])
			}
			k++
		}
		if got.Errors != 3 || got.Computed != want.Computed || got.Deduped != want.Deduped {
			t.Fatalf("workers %d: errors %d computed %d deduped %d, want 3, %d, %d",
				w, got.Errors, got.Computed, got.Deduped, want.Computed, want.Deduped)
		}
	}
}

// TestDecideNilQuery checks that Decide and the EquivalentUnder adapter
// return an error for nil arguments instead of panicking.
func TestDecideNilQuery(t *testing.T) {
	s := gen.GraphSchema()
	e := New(s, nil, Options{})
	q := gen.ChainQuery(2)
	for _, op := range []Op{OpEquivalent, OpContained} {
		for _, pair := range [][2]*cq.Query{{nil, q}, {q, nil}, {nil, nil}} {
			r := e.Decide(context.Background(), pair[0], pair[1], op)
			if !errors.Is(r.Err, containment.ErrNilQuery) {
				t.Fatalf("%v(%v, %v): err %v, want ErrNilQuery", op, pair[0], pair[1], r.Err)
			}
		}
	}
	if _, _, err := e.EquivalentUnder(nil, q, s, nil); !errors.Is(err, containment.ErrNilQuery) {
		t.Fatalf("EquivalentUnder(nil, q): err %v, want ErrNilQuery", err)
	}
}

// BenchmarkRunE1Prologue decides the batch-dedup workload in process:
// the E1 corpus at 300 pairs per family, every query parsed from its
// text so clones are pointer-distinct as in a batch handed over in text,
// one Run per family on a fresh engine with two workers.  About one pair
// in eight is distinct, so the validate-and-canonicalize prologue
// dominates.  Profile it with
//
//	go test ./internal/engine -run '^$' -bench RunE1 -cpuprofile cpu.out
func BenchmarkRunE1Prologue(b *testing.B) {
	fams := e1Corpus(b, 300)
	batches := make([][]Job, len(fams))
	pairs := 0
	for k, f := range fams {
		for _, p := range f.Pairs {
			batches[k] = append(batches[k], Job{
				Left:  cq.MustParse(p.Left.String()),
				Right: cq.MustParse(p.Right.String()),
				Op:    OpEquivalent,
			})
		}
		pairs += len(f.Pairs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, f := range fams {
			rep := New(f.Schema, f.Deps, Options{Workers: 2}).Run(context.Background(), batches[k])
			if rep.Errors != 0 {
				b.Fatalf("%s: %d errors", f.Name, rep.Errors)
			}
		}
	}
	b.ReportMetric(float64(b.N*pairs)/b.Elapsed().Seconds(), "pairs/s")
}
