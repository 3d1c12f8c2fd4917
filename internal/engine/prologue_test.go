package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
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

// TestDecideNilQuery checks that Decide and the pool's Equiv return an
// error for nil arguments instead of panicking.
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
	if _, _, err := NewPool(Options{}).Equiv(context.Background(), nil, q, s, nil); !errors.Is(err, containment.ErrNilQuery) {
		t.Fatalf("Equiv(nil, q): err %v, want ErrNilQuery", err)
	}
}

// TestRunTellsVariableFromConstant runs queries that print alike.  A
// has the head variable `T1:5`, B the constant T1:5 in its place over
// the same body; both are valid, A is equivalent to C and B is not.  D
// prints like C but has one variable named `X, Y` in E's two columns,
// so it is invalid.  The memo that lets clones share one validation and
// one canonicalization must take none of them for a clone of another:
// every Run result must be Decide's.
func TestRunTellsVariableFromConstant(t *testing.T) {
	s := gen.GraphSchema()
	body := []cq.Atom{{Rel: "E", Vars: []cq.Var{"T1:5", "Y"}}}
	a := &cq.Query{HeadRel: "V", Head: []cq.Term{cq.V("T1:5")}, Body: body}
	b := &cq.Query{HeadRel: "V", Head: []cq.Term{cq.C(value.Value{Type: 1, N: 5})}, Body: body}
	c := cq.MustParse("V(X) :- E(X, Y).")
	d := &cq.Query{HeadRel: "V", Head: []cq.Term{cq.V("X")}, Body: []cq.Atom{{Rel: "E", Vars: []cq.Var{"X, Y"}}}}
	if a.String() != b.String() || c.String() != d.String() {
		t.Fatalf("premise: %s and %s, %s and %s should print alike", a, b, c, d)
	}
	ctx := context.Background()
	jobs := []Job{
		{Left: a, Right: c, Op: OpEquivalent},
		{Left: b, Right: c, Op: OpEquivalent},
		{Left: d, Right: c, Op: OpEquivalent},
	}
	for _, w := range []int{1, 2} {
		rep := New(s, nil, Options{Workers: w}).Run(ctx, jobs)
		for i, j := range jobs {
			want := New(s, nil, Options{}).Decide(ctx, j.Left, j.Right, j.Op)
			got := rep.Results[i]
			if !sameResult(got, want) {
				t.Fatalf("workers %d: job %d:\n  Run    %+v\n  Decide %+v", w, i, got, want)
			}
		}
		if !rep.Results[0].Holds || rep.Results[1].Holds || rep.Results[2].Err == nil {
			t.Fatalf("workers %d: A≡C %v, B≡C %v, D≡C err %v; want true, false, an error",
				w, rep.Results[0].Holds, rep.Results[1].Holds, rep.Results[2].Err)
		}
	}
}

// TestRunIncomparableHeads runs pairs whose head types differ in arity
// or in a position's type next to a pair that is comparable, with one
// presentation in all of them.  Run checks each presentation once and
// compares head types per pair; every result must be Decide's, error
// text included.
func TestRunIncomparableHeads(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T2)")
	first := cq.MustParse("V(X) :- R(X, Y).")
	jobs := []Job{
		{Left: first, Right: cq.MustParse("V(Z) :- R(Z, W)."), Op: OpEquivalent},
		{Left: cq.MustParse("V(X) :- R(X, Y)."), Right: cq.MustParse("V(Y) :- R(X, Y)."), Op: OpEquivalent},
		{Left: cq.MustParse("V(X, Y) :- R(X, Y)."), Right: first, Op: OpContained},
	}
	ctx := context.Background()
	for _, w := range []int{1, 2} {
		rep := New(s, nil, Options{Workers: w}).Run(ctx, jobs)
		for i, j := range jobs {
			want := New(s, nil, Options{}).Decide(ctx, j.Left, j.Right, j.Op)
			if got := rep.Results[i]; !sameResult(got, want) {
				t.Fatalf("workers %d: job %d:\n  Run    %+v\n  Decide %+v", w, i, got, want)
			}
		}
		if !rep.Results[0].Holds || rep.Results[1].Err == nil || rep.Results[2].Err == nil {
			t.Fatalf("workers %d: comparable pair holds %v, type mismatch err %v, arity mismatch err %v; want true and two errors",
				w, rep.Results[0].Holds, rep.Results[1].Err, rep.Results[2].Err)
		}
	}
}

// TestCanonicalizeOnlyPassingPairs requires Decide and Run to
// canonicalize a query only for a pair that passes CheckComparable, so
// the canonicalization counter and the canonicalize spans count keys
// that were used: a valid query met only next to an invalid one, or
// one whose head type differs, is checked but never canonicalized.
func TestCanonicalizeOnlyPassingPairs(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T2)")
	left := cq.MustParse("V(X) :- R(X, Y).")
	other := cq.MustParse("V(Y) :- R(X, Y).")
	unknown := cq.MustParse("V(X) :- Nope(X, Y).")
	failing := []Job{
		{Left: left, Right: unknown, Op: OpEquivalent},
		{Left: left, Right: other, Op: OpContained},
		{Left: unknown, Right: other, Op: OpEquivalent},
		{Left: other, Right: nil, Op: OpEquivalent},
	}
	ctx := context.Background()
	count := func(t *testing.T, reg *obs.Registry, sink *obs.CollectSink, want int64) {
		t.Helper()
		got := reg.Snapshot()["keyedeq_canonicalizations_total"]
		if spans := int64(len(sink.Stage(obs.StageCanonicalize))); got != want || spans != want {
			t.Fatalf("%d canonicalizations and %d canonicalize spans, want %d", got, spans, want)
		}
	}
	for _, w := range []int{1, 2} {
		reg, sink := obs.NewRegistry(), &obs.CollectSink{}
		e := New(s, nil, Options{Workers: w, Obs: &obs.Obs{Reg: reg, Sink: sink}})
		for _, j := range failing {
			if r := e.Decide(ctx, j.Left, j.Right, j.Op); r.Err == nil {
				t.Fatalf("Decide(%v, %v) passed; the fixture needs it to fail", j.Left, j.Right)
			}
		}
		count(t, reg, sink, 0)
		if rep := e.Run(ctx, failing); rep.Errors != len(failing) {
			t.Fatalf("workers %d: %d errors, want %d", w, rep.Errors, len(failing))
		}
		count(t, reg, sink, 0)
		// One passing pair canonicalizes its two presentations once each,
		// in a batch that also meets them in failing pairs.
		jobs := append(slices.Clone(failing), Job{Left: left, Right: cq.MustParse("V(Z) :- R(Z, W)."), Op: OpEquivalent})
		if rep := e.Run(ctx, jobs); rep.Results[len(failing)].Err != nil {
			t.Fatalf("workers %d: passing pair: %v", w, rep.Results[len(failing)].Err)
		}
		count(t, reg, sink, 2)
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
