package engine

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

func TestEngineMatchesSequentialOnGraphPairs(t *testing.T) {
	s := gen.GraphSchema()
	e := New(s, nil, Options{Workers: 4})
	// Chains are binary, stars and cliques unary; pair within each group
	// so every job has comparable head types.
	groups := [][]*cq.Query{
		{gen.ChainQuery(1), gen.ChainQuery(2), gen.ChainQuery(3), gen.RandomChainVariant(rand.New(rand.NewSource(7)), 2, 2)},
		{gen.StarQuery(1), gen.StarQuery(2), gen.StarQuery(3), gen.CliqueQuery(2)},
	}
	var jobs []Job
	for _, qs := range groups {
		for _, a := range qs {
			for _, b := range qs {
				jobs = append(jobs, Job{Left: a, Right: b, Op: OpEquivalent})
				jobs = append(jobs, Job{Left: a, Right: b, Op: OpContained})
			}
		}
	}
	rep := e.Run(context.Background(), jobs)
	if rep.Pairs != len(jobs) || len(rep.Results) != len(jobs) {
		t.Fatalf("report pairs %d, results %d, want %d", rep.Pairs, len(rep.Results), len(jobs))
	}
	for i, j := range jobs {
		r := rep.Results[i]
		if r.Err != nil {
			t.Fatalf("job %d (%s vs %s): %v", i, j.Left, j.Right, r.Err)
		}
		var want bool
		var err error
		if j.Op == OpEquivalent {
			want, _, err = containment.EquivalentUnder(j.Left, j.Right, s, nil)
		} else {
			want, _, err = containment.ContainedUnder(j.Left, j.Right, s, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.Holds != want {
			t.Fatalf("job %d %v(%s, %s) = %v, sequential says %v", i, j.Op, j.Left, j.Right, r.Holds, want)
		}
	}
}

func TestEngineMatchesSequentialUnderKeys(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T2)\nS(k*:T2, b:T1)")
	deps := fd.KeyFDs(s)
	e := New(s, deps, Options{Workers: 2})
	qs := []*cq.Query{
		cq.MustParse("V(X) :- R(X, Y)."),
		cq.MustParse("V(X) :- R(X, Y), R(X2, Y2), X = X2."),
		cq.MustParse("V(X) :- R(X, Y), S(Y2, Z), Y = Y2."),
		cq.MustParse("V(Z) :- R(X, Y), S(Y2, Z), Y = Y2."),
	}
	var jobs []Job
	for _, a := range qs {
		for _, b := range qs {
			jobs = append(jobs, Job{Left: a, Right: b, Op: OpEquivalent})
		}
	}
	rep := e.Run(context.Background(), jobs)
	for i, j := range jobs {
		r := rep.Results[i]
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		want, _, err := containment.EquivalentUnder(j.Left, j.Right, s, deps)
		if err != nil {
			t.Fatal(err)
		}
		if r.Holds != want {
			t.Fatalf("job %d ≡(%s, %s) = %v under keys, sequential says %v", i, j.Left, j.Right, r.Holds, want)
		}
	}
	// R(X,Y) with X keyed: the duplicate-atom variant collapses, so the
	// first two queries must come out equivalent under the key.
	if !rep.Results[1].Holds {
		t.Fatal("key dependency not applied: duplicate keyed atom should collapse")
	}
}

func TestEngineDedupesAlphaVariantPairs(t *testing.T) {
	s := gen.GraphSchema()
	e := New(s, nil, Options{Workers: 2})
	a, b := gen.ChainQuery(3), gen.ChainQuery(2)
	// The same decision asked three ways: verbatim, renamed, and with the
	// symmetric orientation.  One computation should serve all three.
	jobs := []Job{
		{Left: a, Right: b, Op: OpEquivalent},
		{Left: a.Rename("p_"), Right: b.Rename("q_"), Op: OpEquivalent},
		{Left: b.Rename("r_"), Right: a.Rename("s_"), Op: OpEquivalent},
	}
	rep := e.Run(context.Background(), jobs)
	if rep.Computed != 1 || rep.Deduped != 2 {
		t.Fatalf("computed %d deduped %d, want 1 and 2", rep.Computed, rep.Deduped)
	}
	for i, r := range rep.Results {
		if r.Err != nil || r.Holds {
			t.Fatalf("result %d: holds=%v err=%v (chain3 and chain2 are inequivalent)", i, r.Holds, r.Err)
		}
	}
	if rep.Results[0].PairKey != rep.Results[2].PairKey {
		t.Fatal("symmetric equivalence pairs should share a pair key")
	}
}

func TestEngineSecondRunAllCacheHits(t *testing.T) {
	s := gen.GraphSchema()
	e := New(s, nil, Options{Workers: 2, CacheSize: 1024})
	jobs := []Job{
		{Left: gen.ChainQuery(2), Right: gen.ChainQuery(3), Op: OpEquivalent},
		{Left: gen.StarQuery(2), Right: gen.StarQuery(3), Op: OpEquivalent},
		{Left: gen.StarQuery(2), Right: gen.StarQuery(1), Op: OpContained},
	}
	first := e.Run(context.Background(), jobs)
	if first.CacheHits != 0 || first.Computed != len(jobs) {
		t.Fatalf("first run: computed %d hits %d", first.Computed, first.CacheHits)
	}
	second := e.Run(context.Background(), jobs)
	if second.CacheHits != len(jobs) || second.Computed != 0 {
		t.Fatalf("second run: computed %d hits %d, want all hits", second.Computed, second.CacheHits)
	}
	for i := range jobs {
		if first.Results[i].Holds != second.Results[i].Holds {
			t.Fatalf("verdict %d changed across runs", i)
		}
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	s := gen.GraphSchema()
	e := New(s, nil, Options{Workers: 1, CacheSize: -1})
	jobs := []Job{{Left: gen.ChainQuery(2), Right: gen.ChainQuery(2), Op: OpEquivalent}}
	e.Run(context.Background(), jobs)
	rep := e.Run(context.Background(), jobs)
	if rep.CacheHits != 0 || rep.Computed != 1 {
		t.Fatalf("cache disabled but hits=%d computed=%d", rep.CacheHits, rep.Computed)
	}
	if st := e.CacheStats(); st.Capacity != 0 {
		t.Fatalf("disabled cache reports capacity %d", st.Capacity)
	}
}

func TestEngineErrorOnIncomparablePair(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T2)\nS(k*:T2, b:T1)")
	e := New(s, nil, Options{})
	jobs := []Job{
		{Left: cq.MustParse("V(X) :- R(X, Y)."), Right: cq.MustParse("V(Y) :- R(X, Y)."), Op: OpEquivalent},
		{Left: cq.MustParse("V(X) :- R(X, Y)."), Right: cq.MustParse("V(X) :- R(X, Y)."), Op: OpEquivalent},
	}
	rep := e.Run(context.Background(), jobs)
	if rep.Results[0].Err == nil {
		t.Fatal("head-type mismatch should error")
	}
	if rep.Results[1].Err != nil || !rep.Results[1].Holds {
		t.Fatalf("valid pair affected by invalid one: %+v", rep.Results[1])
	}
	if rep.Errors != 1 {
		t.Fatalf("errors = %d, want 1", rep.Errors)
	}
}

// TestLabeledNullsEqualNoConstant decides pairs whose left canonical
// database holds a labeled null numbered like a constant of the right
// side: V(X) :- E(X, Y). freezes X and Y to the nulls T1:_1 and T1:_2,
// which the selections X = T1:1 and Y = T1:2 must not match.  Each case
// runs adaptive and naive, through Decide, and in one Run batch.  A
// query built to hold a null is rejected on every path.
func TestLabeledNullsEqualNoConstant(t *testing.T) {
	s := schema.MustParse("E(src*:T1, dst:T1)")
	deps := fd.KeyFDs(s)
	plain := cq.MustParse("V(X) :- E(X, Y).")
	sel := cq.MustParse("V(X) :- E(X, Y), Y = T1:2.")
	withNull := cq.MustParse("V(X) :- E(X, Y), Y = T1:2.")
	withNull.Eqs[0].Right = cq.C(value.Value{Type: 1, Null: true, N: 2})
	cases := []struct {
		left, right *cq.Query
		op          Op
		want        bool
		err         string // what every path's error must contain
	}{
		{plain, sel, OpContained, false, ""},
		{sel, plain, OpContained, true, ""},
		{plain, cq.MustParse("V(X) :- E(X, Y), X = T1:1."), OpContained, false, ""},
		{plain, sel, OpEquivalent, false, ""},
		{withNull, plain, OpContained, false, "labeled null"},
	}
	ctx := context.Background()
	jobs := make([]Job, len(cases))
	for i, c := range cases {
		jobs[i] = Job{Left: c.left, Right: c.right, Op: c.op}
	}
	rep := New(s, deps, Options{Workers: 2, CacheSize: -1}).Run(ctx, jobs)
	e := New(s, deps, Options{CacheSize: -1})
	for i, c := range cases {
		check := func(path string, holds bool, err error) {
			t.Helper()
			switch {
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Errorf("case %d %s: %v(%s, %s) error %v, want one naming %q", i, path, c.op, c.left, c.right, err, c.err)
			case c.err == "" && (err != nil || holds != c.want):
				t.Errorf("case %d %s: %v(%s, %s) = %v, %v; want %v", i, path, c.op, c.left, c.right, holds, err, c.want)
			}
		}
		for _, m := range []struct {
			name string
			mode cq.SearchMode
		}{{"adaptive", cq.SearchAdaptive}, {"naive", cq.SearchNaive}} {
			decide := containment.ContainedUnderMode
			if c.op == OpEquivalent {
				decide = containment.EquivalentUnderMode
			}
			holds, _, err := decide(c.left, c.right, s, deps, m.mode)
			check(m.name, holds, err)
		}
		r := e.Decide(ctx, c.left, c.right, c.op)
		check("Decide", r.Holds, r.Err)
		check("Run", rep.Results[i].Holds, rep.Results[i].Err)
	}
}

func TestEngineCanceledContext(t *testing.T) {
	s := gen.GraphSchema()
	e := New(s, nil, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{{Left: gen.CliqueQuery(4), Right: gen.CliqueQuery(4), Op: OpEquivalent}}
	rep := e.Run(ctx, jobs)
	if rep.Results[0].Err == nil {
		t.Fatal("canceled batch should surface the context error")
	}
}

func TestEngineDecideCachesAndReports(t *testing.T) {
	s := gen.GraphSchema()
	e := New(s, nil, Options{})
	q1, q2 := gen.ChainQuery(2), gen.ChainQuery(2)
	r1 := e.Decide(context.Background(), q1, q2, OpEquivalent)
	if r1.Err != nil || !r1.Holds || r1.CacheHit {
		t.Fatalf("first decide: %+v", r1)
	}
	r2 := e.Decide(context.Background(), q1.Rename("z_"), q2, OpEquivalent)
	if !r2.CacheHit || !r2.Holds {
		t.Fatalf("renamed re-decide should hit: %+v", r2)
	}
}

func TestEngineReportAggregates(t *testing.T) {
	s := gen.GraphSchema()
	now := time.Unix(0, 0)
	e := New(s, nil, Options{Workers: 3, Now: func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}})
	jobs := []Job{
		{Left: gen.ChainQuery(2), Right: gen.ChainQuery(2), Op: OpEquivalent},
		{Left: gen.ChainQuery(2), Right: gen.ChainQuery(3), Op: OpEquivalent},
	}
	rep := e.Run(context.Background(), jobs)
	if rep.Holding != 1 {
		t.Fatalf("holding = %d, want 1", rep.Holding)
	}
	if rep.Nodes <= 0 {
		t.Fatal("no homomorphism nodes recorded")
	}
	if rep.Wall <= 0 {
		t.Fatal("injected clock did not produce a wall time")
	}
	if rep.Workers != 3 {
		t.Fatalf("workers = %d", rep.Workers)
	}
}

func TestPoolRoutesAndCaches(t *testing.T) {
	p := NewPool(Options{})
	s1 := gen.GraphSchema()
	s2 := gen.GraphSchema() // distinct pointer, same fingerprint
	q1, q2 := gen.ChainQuery(2), gen.ChainQuery(3)
	if r := p.For(s1, nil).Decide(context.Background(), q1, q2, OpEquivalent); r.Err != nil || r.CacheHit {
		t.Fatalf("first decision: %+v", r)
	}
	if r := p.For(s2, nil).Decide(context.Background(), q1, q2, OpEquivalent); !r.CacheHit {
		t.Fatalf("structurally equal schemas should share verdicts: %+v", r)
	}
	keyed := schema.MustParse("E(src*:T1, dst:T1)")
	if r := p.For(keyed, fd.KeyFDs(keyed)).Decide(context.Background(), q1, q2, OpEquivalent); r.Err != nil || r.CacheHit {
		t.Fatalf("different schemas must not share verdicts: %+v", r)
	}
	ok, _, err := p.Equiv(context.Background(), gen.ChainQuery(2), gen.ChainQuery(2), s1, nil)
	if err != nil || !ok {
		t.Fatalf("pool equiv: ok=%v err=%v", ok, err)
	}
	if r := p.For(s1, nil).Decide(context.Background(), gen.ChainQuery(3), gen.ChainQuery(3), OpContained); r.Err != nil || !r.Holds {
		t.Fatalf("pool contains: ok=%v err=%v", r.Holds, r.Err)
	}
	if st := p.Stats(); st.Entries == 0 {
		t.Fatalf("pool cache empty after decisions: %+v", st)
	}
}
