package engine

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/value"
)

// checkPresentationIdentity holds Run's presentation memo to the exact
// presentation rule: two queries share a memo entry exactly when
// appendPresentation renders them alike.  It runs the queries through a
// memo with a seeded hash and through one whose hash is cut to a
// constant, which puts every presentation into one chain.
func checkPresentationIdentity(t *testing.T, qs []*cq.Query) {
	t.Helper()
	for _, oneChain := range []bool{false, true} {
		m := newCanonMemo(len(qs))
		if oneChain {
			m.mask = 0
		}
		byRendering := make(map[string]*canonEntry)
		rendering := make(map[*canonEntry]string)
		for _, q := range qs {
			ent := m.entry(q)
			r := string(appendPresentation(nil, q))
			if prev, ok := byRendering[r]; ok && prev != ent {
				t.Fatalf("one chain %v: %s renders like an earlier query but got another entry", oneChain, q)
			}
			if prev, ok := rendering[ent]; ok && prev != r {
				t.Fatalf("one chain %v: %s shares an entry with a query that renders otherwise (%s)", oneChain, q, ent.q)
			}
			if string(appendPresentation(nil, ent.q)) != r {
				t.Fatalf("one chain %v: entry of %s holds %s", oneChain, q, ent.q)
			}
			byRendering[r], rendering[ent] = ent, r
		}
		if oneChain && len(qs) > 0 && len(m.chains) != 1 {
			t.Fatalf("a memo with its hash cut to a constant has %d chains", len(m.chains))
		}
	}
}

// lookalikes are hand-built queries whose presentations differ by
// little: a variable named like the constant T1:5 and that constant,
// empty names in every place (an empty variable, too, where a constant
// stands elsewhere), one variable named `X, Y` and the two
// variables X and Y, a placeholder reused across atoms, and equalities
// to constants, to a variable named like one, to other constants and to
// the labeled null T1:_5.
func lookalikes() []*cq.Query {
	t15 := value.Value{Type: 1, N: 5}
	e := func(vars ...cq.Var) cq.Atom { return cq.Atom{Rel: "E", Vars: vars} }
	q := func(head []cq.Term, eqs []cq.Equality, body ...cq.Atom) *cq.Query {
		return &cq.Query{HeadRel: "V", Head: head, Body: body, Eqs: eqs}
	}
	x := []cq.Term{cq.V("X")}
	out := []*cq.Query{
		q([]cq.Term{cq.V("T1:5")}, nil, e("T1:5", "Y")),
		q([]cq.Term{cq.C(t15)}, nil, e("T1:5", "Y")),
		q(x, nil, e("X", "Y")),
		q(x, nil, e("X, Y")),
		{HeadRel: "W", Head: x, Body: []cq.Atom{e("X", "Y")}},
		{HeadRel: "", Head: []cq.Term{cq.V("")}, Body: []cq.Atom{e("", "X")}},
		{HeadRel: "", Head: []cq.Term{cq.V("")}, Body: []cq.Atom{e("X", "")}},
		{HeadRel: "", Head: []cq.Term{cq.C(t15)}, Body: []cq.Atom{e("", "X")}},
		{HeadRel: "V", Body: []cq.Atom{{Rel: "", Vars: []cq.Var{""}}}},
		{HeadRel: "", Body: []cq.Atom{{Rel: "V", Vars: []cq.Var{""}}}},
		q(x, nil, e("X", "Y"), e("X", "Z")),
		q(x, nil, e("X", "Y"), e("Z", "X")),
		q(x, nil, e("X", "Y"), e("X", "Y")),
		q(x, []cq.Equality{{Left: "Y", Right: cq.C(t15)}}, e("X", "Y")),
		q(x, []cq.Equality{{Left: "Y", Right: cq.V("T1:5")}}, e("X", "Y")),
		q(x, []cq.Equality{{Left: "Y", Right: cq.C(value.Value{Type: 1, N: 6})}}, e("X", "Y")),
		q(x, []cq.Equality{{Left: "Y", Right: cq.C(value.Value{Type: 2, N: 5})}}, e("X", "Y")),
		q(x, []cq.Equality{{Left: "Y", Right: cq.C(value.Value{Type: 1, N: -5})}}, e("X", "Y")),
		q(x, []cq.Equality{{Left: "Y", Right: cq.C(value.Value{Type: 1, Null: true, N: 5})}}, e("X", "Y")),
		q([]cq.Term{cq.C(t15), cq.V("X")}, []cq.Equality{{Left: "Y", Right: cq.C(t15)}, {Left: "X", Right: cq.V("Y")}}, e("X", "Y")),
		q([]cq.Term{cq.C(t15), cq.V("X")}, []cq.Equality{{Left: "X", Right: cq.V("Y")}, {Left: "Y", Right: cq.C(t15)}}, e("X", "Y")),
	}
	// Each again, pointer-distinct and at other source positions, which
	// the presentation leaves out.
	for _, q := range slices.Clone(out) {
		c := q.Clone()
		c.Pos = cq.Pos{Line: 3, Col: 7}
		for i := range c.Body {
			c.Body[i].Pos = cq.Pos{Line: 4, Col: i + 1}
		}
		out = append(out, c)
	}
	return out
}

// TestPresentationIdentity runs both sides of every E1 family's pairs,
// their re-parsed prints and the lookalikes through the memo.
func TestPresentationIdentity(t *testing.T) {
	qs := lookalikes()
	distinct := make(map[string]bool)
	for _, q := range qs {
		distinct[string(appendPresentation(nil, q))] = true
	}
	if len(distinct) != len(qs)/2 {
		t.Fatalf("premise: %d distinct presentations among %d lookalikes, want half", len(distinct), len(qs))
	}
	for _, f := range e1Corpus(t, 60) {
		for _, p := range f.Pairs {
			for _, q := range []*cq.Query{p.Left, p.Right} {
				qs = append(qs, q, cq.MustParse(q.String()))
			}
		}
	}
	checkPresentationIdentity(t, qs)
}

// TestRunOneChainMatchesDecide runs the E1 corpus with poisoned jobs
// through a memo whose every presentation hashes alike, so each lookup
// walks one chain and a hit rests on the field-by-field comparison
// alone.  Every result must carry Decide's verdict, pair key and error
// text, and equal what Run returns with a seeded hash.
func TestRunOneChainMatchesDecide(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	ctx := context.Background()
	for _, f := range e1Corpus(t, n) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			jobs := poisonedJobs(f)
			e := New(f.Schema, f.Deps, Options{Workers: 2, CacheSize: -1})
			m := newCanonMemo(len(jobs))
			m.mask = 0
			rep := e.run(ctx, jobs, m)
			if len(m.chains) != 1 {
				t.Fatalf("%d chains, want one", len(m.chains))
			}
			seeded := e.Run(ctx, jobs)
			for i, j := range jobs {
				got, want := rep.Results[i], e.Decide(ctx, j.Left, j.Right, j.Op)
				if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
					t.Fatalf("job %d: Run err %v, Decide err %v", i, got.Err, want.Err)
				}
				if got.Holds != want.Holds || got.PairKey != want.PairKey {
					t.Fatalf("job %d %v:\n  Run    holds=%v key %q\n  Decide holds=%v key %q",
						i, j.Op, got.Holds, got.PairKey, want.Holds, want.PairKey)
				}
				if !sameResult(got, seeded.Results[i]) {
					t.Fatalf("job %d: one chain %+v, seeded hash %+v", i, got, seeded.Results[i])
				}
			}
			if got, want := reportTotals(rep), reportTotals(seeded); !reflect.DeepEqual(got, want) {
				t.Fatalf("totals: one chain %+v, seeded hash %+v", got, want)
			}
		})
	}
}

// TestRunAllocsScaleWithDistinctWork requires Run's allocations to grow
// with the distinct presentations and pairs of a batch, not with its
// jobs: ten pointer-distinct re-parsed copies of a batch may cost fewer
// than half an allocation per added job over one copy.  The batches are
// each E1 family's pairs, its poisonedJobs, and the poisoned jobs that
// fail, whose errors are built once per failing pair of presentations.
// One worker and no cache keep the count steady.  The bound is asserted
// only without the race detector, whose sync.Pool drops puts at random.
func TestRunAllocsScaleWithDistinctWork(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	ctx := context.Background()
	for _, f := range e1Corpus(t, n) {
		e := New(f.Schema, f.Deps, Options{Workers: 1, CacheSize: -1})
		var pairs, failing []Job
		for _, p := range f.Pairs {
			pairs = append(pairs, Job{Left: p.Left, Right: p.Right})
		}
		poisoned := poisonedJobs(f)
		for i, r := range e.Run(ctx, poisoned).Results {
			if r.Err != nil {
				failing = append(failing, poisoned[i])
			}
		}
		for _, in := range []struct {
			name string
			jobs []Job
		}{{"pairs", pairs}, {"poisoned", poisoned}, {"failing", failing}} {
			copies := func(k int) []Job {
				var jobs []Job
				for c := 0; c < k; c++ {
					for _, j := range in.jobs {
						jobs = append(jobs, Job{Left: reparse(j.Left), Right: reparse(j.Right), Op: j.Op})
					}
				}
				return jobs
			}
			one, ten := copies(1), copies(10)
			a1 := testing.AllocsPerRun(3, func() { e.Run(ctx, one) })
			a10 := testing.AllocsPerRun(3, func() { e.Run(ctx, ten) })
			if perJob := (a10 - a1) / float64(len(ten)-len(one)); perJob >= 0.5 && !raceEnabled {
				t.Errorf("%s %s: %.0f allocations at one copy, %.0f at ten: %.2f per added job, want under 0.5",
					f.Name, in.name, a1, a10, perJob)
			}
		}
	}
}

// reparse returns a pointer-distinct copy of q parsed from its print;
// nil stays nil.
func reparse(q *cq.Query) *cq.Query {
	if q == nil {
		return nil
	}
	return cq.MustParse(q.String())
}

// fuzzRels, fuzzNames and fuzzConsts are the alphabet fuzzQuery draws
// from: few enough that two decodings often render alike, with an empty
// name, a variable named like the constant T1:5 and one named `X, Y`.
var (
	fuzzRels   = []string{"E", "V", ""}
	fuzzNames  = []cq.Var{"X", "Y", "T1:5", "", "X, Y"}
	fuzzConsts = []value.Value{{Type: 1, N: 5}, {Type: 1, N: 6}, {Type: 2, N: 5}}
)

// fuzzQuery decodes data into a query, one byte per choice (zero once
// data runs out): the head relation; the head's length and terms; the
// body's length and, per atom, its relation, its length and its
// variables; the equality list's length and, per equality, its left
// variable and its right term.  Lengths are taken mod 4.  A term byte
// with its top bit set is the constant fuzzConsts[b&0x7f], else the
// variable fuzzNames[b]; indexes wrap around.  The queries need not be
// valid: names may be empty and placeholders reused.
func fuzzQuery(data []byte) *cq.Query {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	name := func() cq.Var { return fuzzNames[next()%len(fuzzNames)] }
	term := func() cq.Term {
		b := next()
		if b&0x80 != 0 {
			return cq.C(fuzzConsts[(b&0x7f)%len(fuzzConsts)])
		}
		return cq.V(string(fuzzNames[b%len(fuzzNames)]))
	}
	q := &cq.Query{HeadRel: fuzzRels[next()%len(fuzzRels)]}
	for n := next() % 4; n > 0; n-- {
		q.Head = append(q.Head, term())
	}
	for n := next() % 4; n > 0; n-- {
		a := cq.Atom{Rel: fuzzRels[next()%len(fuzzRels)]}
		for k := next() % 4; k > 0; k-- {
			a.Vars = append(a.Vars, name())
		}
		q.Body = append(q.Body, a)
	}
	for n := next() % 4; n > 0; n-- {
		q.Eqs = append(q.Eqs, cq.Equality{Left: name(), Right: term()})
	}
	return q
}

// FuzzPresentationIdentity decodes two queries and requires the memo to
// give them one entry exactly when they render alike, and to give a
// second decoding of the first, at other source positions, the first's
// entry.
func FuzzPresentationIdentity(f *testing.F) {
	seeds := [][2][]byte{
		// V(`T1:5`) :- E(`T1:5`, Y) against V(T1:5) :- E(`T1:5`, Y).
		{{1, 1, 2, 1, 0, 2, 2, 1, 0}, {1, 1, 0x80, 1, 0, 2, 2, 1, 0}},
		// E(``, X) against E(X, ``), under an empty head relation.
		{{2, 1, 3, 1, 0, 2, 3, 0, 0}, {2, 1, 3, 1, 0, 2, 0, 3, 0}},
		// V(X) :- E(`X, Y`) against V(X) :- E(X, Y).
		{{1, 1, 0, 1, 0, 1, 4, 0}, {1, 1, 0, 1, 0, 2, 0, 1, 0}},
		// X reused: E(X, Y), E(X, Y) against E(X, Y), E(Y, X).
		{{1, 1, 0, 2, 0, 2, 0, 1, 0, 2, 0, 1, 0}, {1, 1, 0, 2, 0, 2, 0, 1, 0, 2, 1, 0, 0}},
		// Y = T1:5 against Y = T1:6, and against Y = `T1:5`.
		{{1, 1, 0, 1, 0, 2, 0, 1, 1, 1, 0x80}, {1, 1, 0, 1, 0, 2, 0, 1, 1, 1, 0x81}},
		{{1, 1, 0, 1, 0, 2, 0, 1, 1, 1, 0x80}, {1, 1, 0, 1, 0, 2, 0, 1, 1, 1, 2}},
		// Equal presentations.
		{{1, 1, 0, 1, 0, 2, 0, 1, 0}, {1, 1, 0, 1, 0, 2, 0, 1, 0}},
		{{}, {}},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		moved := fuzzQuery(a)
		moved.Pos = cq.Pos{Line: 2, Col: 5}
		for i := range moved.Body {
			moved.Body[i].Pos = cq.Pos{Line: 2, Col: 9 + i}
		}
		checkPresentationIdentity(t, []*cq.Query{fuzzQuery(a), fuzzQuery(b), moved})
	})
}
