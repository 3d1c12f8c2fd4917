package cq

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// These tests pin the adaptive search's two arms against the naive
// oracle.  The scan arm follows the naive search's dynamic atom order,
// so it must match it bit for bit: verdicts, EvalStats, and witnesses.
// The pipeline arm runs the plan's static order, so it must match the
// oracle's verdicts and return witnesses that really are answers.
// Each test calls the arm it names directly, bypassing the size rule.

// randomGraphDB builds a random E(a,b) digraph over [0, nodes).
func randomGraphDB(rng *rand.Rand, nodes int64, edges int) *instance.Database {
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	for i := 0; i < edges; i++ {
		d.MustInsert("E", val(1, rng.Int63n(nodes)), val(1, rng.Int63n(nodes)))
	}
	return d
}

// parityQueries covers the plan shapes the search distinguishes: chains
// (indexed probes), self-loops, equality-linked components, constants,
// cross products, and repeated relations sharing index slots.
func parityQueries() []*Query {
	return []*Query{
		MustParse("V(X, Z) :- E(X, Y), E(Y, Z)."),
		MustParse("V(X) :- E(X, X)."),
		MustParse("V(X, W) :- E(X, Y), E(Z, W), Y = Z."),
		MustParse("V(X, Z) :- E(X, Y), E(Y, Z), Y = T1:3."),
		MustParse("V(X, Z) :- E(X, Y), E(Z, W)."),
		MustParse("V(X) :- E(X, Y), E(Y, Z), E(Y, W)."),
		MustParse("V(A, E) :- E(A, B), E(B, C), E(C, D), E(D, E)."),
	}
}

// searchResult is one search's full outcome.
type searchResult struct {
	ok  bool
	w   map[Var]value.Value
	es  EvalStats
	err error
}

// searchNaive runs the naive oracle.
func searchNaive(q *Query, d *instance.Database, want instance.Tuple) searchResult {
	ok, w, es, err := FindAnswerBindingNaive(context.Background(), q, d, want)
	return searchResult{ok, w, es, err}
}

// searchFunc is the signature shared by FindAnswerBindingNaive and the
// adaptive search's two arms.
type searchFunc func(context.Context, *Query, *instance.Database, instance.Tuple) (bool, map[Var]value.Value, EvalStats, error)

// searchArm runs one arm of the adaptive search (findAnswerScan or
// findAnswerPipeline) directly, whatever the size rule would pick.
func searchArm(arm searchFunc, q *Query, d *instance.Database, want instance.Tuple) searchResult {
	ok, w, es, err := arm(context.Background(), q, d, want)
	return searchResult{ok, w, es, err}
}

// searchAdaptive runs the production search, size rule included.
func searchAdaptive(q *Query, d *instance.Database, want instance.Tuple) searchResult {
	ok, w, es, err := FindAnswerBindingFrozen(context.Background(), q, d.Frozen(), want)
	return searchResult{ok, w, es, err}
}

// sameVerdict requires two searches to agree on errors and verdicts.
// It reports whether both succeeded without error.
func sameVerdict(t *testing.T, tag string, a, b searchResult) bool {
	t.Helper()
	if (a.err == nil) != (b.err == nil) {
		t.Fatalf("%s: errors diverge: %v vs %v", tag, a.err, b.err)
	}
	if a.err != nil {
		return false
	}
	if a.ok != b.ok {
		t.Fatalf("%s: verdicts diverge: %v vs %v", tag, a.ok, b.ok)
	}
	return true
}

// sameSearch requires two searches to agree bit for bit: verdict, full
// stats, and witness.
func sameSearch(t *testing.T, tag string, a, b searchResult) {
	t.Helper()
	if !sameVerdict(t, tag, a, b) {
		return
	}
	if a.es.Nodes != b.es.Nodes {
		t.Fatalf("%s: node counts diverge: %d vs %d", tag, a.es.Nodes, b.es.Nodes)
	}
	if len(a.es.CompNodes) != len(b.es.CompNodes) || (a.es.CompNodes == nil) != (b.es.CompNodes == nil) {
		t.Fatalf("%s: component breakdowns diverge: %v vs %v", tag, a.es.CompNodes, b.es.CompNodes)
	}
	for i := range a.es.CompNodes {
		if a.es.CompNodes[i] != b.es.CompNodes[i] {
			t.Fatalf("%s: component %d nodes diverge: %v vs %v", tag, i, a.es.CompNodes, b.es.CompNodes)
		}
	}
	if !a.ok {
		return
	}
	if len(a.w) != len(b.w) {
		t.Fatalf("%s: witness sizes diverge: %d vs %d", tag, len(a.w), len(b.w))
	}
	for v, va := range a.w {
		if vb, ok := b.w[v]; !ok || vb != va {
			t.Fatalf("%s: witness diverges at %s: %v vs %v", tag, v, va, b.w[v])
		}
	}
}

// checkWitness requires a found witness to really answer want: every
// body atom maps to a tuple of its relation, every equality holds, and
// the head maps to want.
func checkWitness(t *testing.T, tag string, q *Query, d *instance.Database, want instance.Tuple, r searchResult) {
	t.Helper()
	if r.err != nil || !r.ok {
		return
	}
	for _, a := range q.Body {
		tup := make(instance.Tuple, len(a.Vars))
		for p, v := range a.Vars {
			tup[p] = r.w[v]
		}
		if !d.Relation(a.Rel).Has(tup) {
			t.Fatalf("%s: witness maps %s to %v, not in the database", tag, a.Rel, tup)
		}
	}
	for _, e := range q.Eqs {
		right := e.Right.Const
		if !e.Right.IsConst {
			right = r.w[e.Right.Var]
		}
		if r.w[e.Left] != right {
			t.Fatalf("%s: witness violates %s = %s", tag, e.Left, e.Right)
		}
	}
	for i, term := range q.Head {
		got := term.Const
		if !term.IsConst {
			got = r.w[term.Var]
		}
		if got != want[i] {
			t.Fatalf("%s: witness head position %d is %v, want %v", tag, i, got, want[i])
		}
	}
}

// randomTrial draws one (query, database, want) triple.
func randomTrial(rng *rand.Rand, queries []*Query, maxNodes, maxEdges int) (*Query, *instance.Database, instance.Tuple) {
	nodes := int64(3 + rng.Intn(maxNodes))
	d := randomGraphDB(rng, nodes, 2+rng.Intn(maxEdges))
	q := queries[rng.Intn(len(queries))]
	want := make(instance.Tuple, len(q.Head))
	for i := range want {
		want[i] = val(1, rng.Int63n(nodes+1))
	}
	return q, d, want
}

// TestStreamedMatchesOraclesRandomized sweeps the plan shapes of
// parityQueries over random digraphs through the pipeline arm: its
// verdicts must match the naive oracle's and its witnesses must be
// answers.
func TestStreamedMatchesOraclesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	queries := parityQueries()
	for trial := 0; trial < 300; trial++ {
		q, d, want := randomTrial(rng, queries, 8, 60)
		tag := fmt.Sprintf("trial %d", trial)
		pipe := searchArm(findAnswerPipeline, q, d, want)
		sameVerdict(t, tag, pipe, searchNaive(q, d, want))
		checkWitness(t, tag, q, d, want, pipe)
		if pipe.err == nil && pipe.es.CompNodes == nil {
			t.Fatalf("%s: pipeline reported no component breakdown", tag)
		}
	}
}

// TestInternedMatchesPlannedRandomized holds the adaptive search's two
// arms against each other over random digraphs: the dense ID scan, the
// pipeline, and whichever arm the size rule picks must all reach the
// same verdict, and every witness must be an answer.
func TestInternedMatchesPlannedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries := parityQueries()
	for trial := 0; trial < 200; trial++ {
		nodes := int64(3 + rng.Intn(6))
		d := randomGraphDB(rng, nodes, 4+rng.Intn(30))
		q := queries[rng.Intn(len(queries))]
		want := make(instance.Tuple, len(q.Head))
		for i := range want {
			want[i] = val(1, rng.Int63n(nodes+1))
		}
		tag := fmt.Sprintf("trial %d", trial)
		scan := searchArm(findAnswerScan, q, d, want)
		if scan.err == nil && scan.es.CompNodes != nil {
			t.Fatalf("%s: scan reported a component breakdown", tag)
		}
		for _, r := range []searchResult{
			scan,
			searchArm(findAnswerPipeline, q, d, want),
			searchAdaptive(q, d, want),
		} {
			sameVerdict(t, tag, scan, r)
			checkWitness(t, tag, q, d, want, r)
		}
	}
}

// TestStreamedGhostValuesFilterLikeMissingBuckets pins ghost IDs on the
// hash-index pipeline: a wanted or constant value absent from the
// database gets an ID no row carries, so its index probe comes up
// empty and the search visits no node at all.
func TestStreamedGhostValuesFilterLikeMissingBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	d := randomGraphDB(rng, 5, 25)
	for _, tc := range []struct {
		tag  string
		q    *Query
		want instance.Tuple
	}{
		{"ghost constants", MustParse("V(X, Z) :- E(X, Y), E(Y, Z), Z = T1:99."), instance.Tuple{val(1, 77), val(1, 99)}},
		{"repeated ghost", MustParse("V(X, Y) :- E(X, Y)."), instance.Tuple{val(1, 88), val(1, 88)}},
	} {
		r := searchArm(findAnswerPipeline, tc.q, d, tc.want)
		if r.err != nil || r.ok {
			t.Fatalf("%s: got (%v, %v), want a miss", tc.tag, r.ok, r.err)
		}
		if r.es.Nodes != 0 {
			t.Fatalf("%s: ghost probe visited %d nodes, want 0", tc.tag, r.es.Nodes)
		}
	}
}

// TestInternedGhostValuesFilterLikeMissingBuckets checks the same ghost
// inputs against the naive oracle over surface values: wanted values
// and query constants the frozen view never interned must decide
// exactly as values absent from the database do.
func TestInternedGhostValuesFilterLikeMissingBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := randomGraphDB(rng, 5, 25)
	q := MustParse("V(X, Z) :- E(X, Y), E(Y, Z), Z = T1:99.")
	want := instance.Tuple{val(1, 77), val(1, 99)}
	sameVerdict(t, "ghost constants", searchArm(findAnswerPipeline, q, d, want), searchNaive(q, d, want))

	// Same ghost value wanted in two head positions: the per-search
	// ghost table must deduplicate so both positions agree.
	q2 := MustParse("V(X, Y) :- E(X, Y).")
	want2 := instance.Tuple{val(1, 88), val(1, 88)}
	sameVerdict(t, "repeated ghost", searchArm(findAnswerPipeline, q2, d, want2), searchNaive(q2, d, want2))
}

// TestInternedWitnessDecodesFreshValues pins the pipeline's decode
// boundary: canonical databases carry labeled nulls, and a witness
// binding one must decode back to exactly that null, not to the
// constant T1:5 that the database also holds.
func TestInternedWitnessDecodesFreshValues(t *testing.T) {
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	null := value.Value{Type: 1, Null: true, N: 5}
	d.MustInsert("E", val(1, 1), null)
	for i := int64(4); i < 20; i++ {
		d.MustInsert("E", val(1, i), val(1, i+1))
	}
	q := MustParse("V(X) :- E(X, Y).")
	want := instance.Tuple{val(1, 1)}
	r := searchArm(findAnswerPipeline, q, d, want)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.ok {
		t.Fatal("answer not found")
	}
	if r.w["Y"] != null {
		t.Fatalf("witness Y = %v, want the null %v", r.w["Y"], null)
	}
	checkWitness(t, "null witness", q, d, want, r)
}

// TestInternedReusesFrozenViewAcrossSearches pins the frozen-view
// memoization the pipeline relies on: two searches over an unmutated
// database share one frozen view instead of re-interning it.
func TestInternedReusesFrozenViewAcrossSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := randomGraphDB(rng, 6, 30)
	q := MustParse("V(X, Z) :- E(X, Y), E(Y, Z).")
	want := instance.Tuple{val(1, 0), val(1, 1)}
	if r := searchArm(findAnswerPipeline, q, d, want); r.err != nil {
		t.Fatal(r.err)
	}
	f1 := d.Frozen()
	if r := searchArm(findAnswerPipeline, q, d, want); r.err != nil {
		t.Fatal(r.err)
	}
	if f2 := d.Frozen(); f1 != f2 {
		t.Fatal("frozen view rebuilt between searches over an unmutated database")
	}
}

// TestScanIDMatchesNaiveRandomized pins the scan arm to the naive
// oracle bit for bit, on relations above the size rule's bound too:
// same dynamic atom order, same node counts, same witnesses — only the
// binding representation differs.
func TestScanIDMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	queries := parityQueries()
	for trial := 0; trial < 300; trial++ {
		q, d, want := randomTrial(rng, queries, 6, 28)
		tag := fmt.Sprintf("trial %d", trial)
		sameSearch(t, tag, searchNaive(q, d, want), searchArm(findAnswerScan, q, d, want))
	}
}

// TestScanIDMatchesNaiveOnInvalidQueries pins both arms to the naive
// oracle on queries Validate rejects: the scan bit for bit, the
// pipeline on verdicts.  The naive search pins the constant of a class
// only when some atom mentions it, so a head variable that no atom
// mentions takes its wanted value whatever constant its class binds.
func TestScanIDMatchesNaiveOnInvalidQueries(t *testing.T) {
	d := randomGraphDB(rand.New(rand.NewSource(75)), 3, 6)
	for _, text := range []string{
		"V(X) :- E(A, B), X = T1:2.",
		"V(X, X) :- E(A, B).",
		"V(X, Y) :- E(A, B), X = Y, Y = T1:1.",
		"V(X) :- E(A, B), X = A, X = T1:1.",
		"V(X) :- E(X, X), E(X, Y).",
	} {
		q := MustParse(text)
		for w := 0; w < 9; w++ {
			want := instance.Tuple{val(1, int64(w%3))}
			if len(q.Head) == 2 {
				want = append(want, val(1, int64(w/3)))
			}
			tag := fmt.Sprintf("%s want %v", text, want)
			naive := searchNaive(q, d, want)
			sameSearch(t, tag, naive, searchArm(findAnswerScan, q, d, want))
			sameVerdict(t, tag, naive, searchArm(findAnswerPipeline, q, d, want))
		}
	}
}

// TestAdaptiveSmallInstancesMatchNaive pins the size rule's scan side:
// on databases whose every relation fits under the scan threshold, the
// adaptive search runs the dense scan and therefore reports exactly
// the naive oracle's stats.
func TestAdaptiveSmallInstancesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	queries := parityQueries()
	for trial := 0; trial < 100; trial++ {
		d := randomGraphDB(rng, 4, 2+rng.Intn(smallRelScanThreshold-1))
		if d.Relation("E").Len() > smallRelScanThreshold {
			continue
		}
		q := queries[rng.Intn(len(queries))]
		want := make(instance.Tuple, len(q.Head))
		for i := range want {
			want[i] = val(1, rng.Int63n(5))
		}
		tag := fmt.Sprintf("trial %d", trial)
		sameSearch(t, tag, searchNaive(q, d, want), searchAdaptive(q, d, want))
	}
}

// multiComponentQuery joins nothing across its two chains, so the plan
// splits into two components of two steps each.
func multiComponentQuery() *Query {
	return MustParse("V(X, Z, A, C) :- E(X, Y), E(Y, Z), E(A, B), E(B, C).")
}
