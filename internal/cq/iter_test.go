package cq

import (
	"context"
	"fmt"
	"math"
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
// oracle's verdicts and return witnesses that really are answers.  The
// parallel component search must be bit-identical to the sequential
// pipeline on every non-canceled outcome.

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

// withCostConfig pins the package cost configuration for one test body.
func withCostConfig(t *testing.T, cfg costConfig, body func()) {
	t.Helper()
	orig := costCfg
	costCfg = cfg
	defer func() { costCfg = orig }()
	body()
}

// pipelineConfig forces the adaptive search onto its pipeline arm: no
// relation passes tier 0, and a negative overhead makes the pipeline
// strictly cheaper than the scan whatever the estimates.  One worker
// keeps the pipeline sequential on any machine.
func pipelineConfig() costConfig {
	cfg := defaultCostConfig
	cfg.scanMaxCard = -1
	cfg.planOverhead = -1
	cfg.indexBuildPerRow = 0
	cfg.nodeCost = 0
	cfg.parallelWorkers = 1
	return cfg
}

// scanConfig forces the adaptive search onto its scan arm: every
// relation passes tier 0.
func scanConfig() costConfig {
	cfg := defaultCostConfig
	cfg.scanMaxCard = math.MaxInt
	return cfg
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
	ok, w, es, err := FindAnswerBindingMode(q, d, want, SearchNaive)
	return searchResult{ok, w, es, err}
}

// searchUnder runs the adaptive search under cfg.
func searchUnder(t *testing.T, cfg costConfig, q *Query, d *instance.Database, want instance.Tuple) searchResult {
	var r searchResult
	withCostConfig(t, cfg, func() {
		r.ok, r.w, r.es, r.err = FindAnswerBinding(q, d, want)
	})
	return r
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
// parityQueries over random digraphs, forcing the pipeline arm: its
// verdicts must match the naive oracle's and its witnesses must be
// answers.
func TestStreamedMatchesOraclesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	queries := parityQueries()
	for trial := 0; trial < 300; trial++ {
		q, d, want := randomTrial(rng, queries, 8, 60)
		tag := fmt.Sprintf("trial %d", trial)
		pipe := searchUnder(t, pipelineConfig(), q, d, want)
		sameVerdict(t, tag, pipe, searchNaive(q, d, want))
		checkWitness(t, tag, q, d, want, pipe)
		if pipe.err == nil && pipe.es.CompNodes == nil {
			t.Fatalf("%s: forced pipeline reported no component breakdown", tag)
		}
	}
}

// TestInternedMatchesPlannedRandomized holds the adaptive search's two
// arms against each other over random digraphs: the dense ID scan
// (forced through tier 0), the pipeline (forced past the estimate), and
// whichever arm the estimate picks once tier 0 is off must all reach
// the same verdict, and every witness must be an answer.
func TestInternedMatchesPlannedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries := parityQueries()
	planned := defaultCostConfig
	planned.scanMaxCard = -1
	for trial := 0; trial < 200; trial++ {
		nodes := int64(3 + rng.Intn(6))
		d := randomGraphDB(rng, nodes, 4+rng.Intn(30))
		q := queries[rng.Intn(len(queries))]
		want := make(instance.Tuple, len(q.Head))
		for i := range want {
			want[i] = val(1, rng.Int63n(nodes+1))
		}
		tag := fmt.Sprintf("trial %d", trial)
		scan := searchUnder(t, scanConfig(), q, d, want)
		if scan.err == nil && scan.es.CompNodes != nil {
			t.Fatalf("%s: forced scan reported a component breakdown", tag)
		}
		for _, r := range []searchResult{
			scan,
			searchUnder(t, pipelineConfig(), q, d, want),
			searchUnder(t, planned, q, d, want),
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
		r := searchUnder(t, pipelineConfig(), tc.q, d, tc.want)
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
	sameVerdict(t, "ghost constants", searchUnder(t, pipelineConfig(), q, d, want), searchNaive(q, d, want))

	// Same ghost value wanted in two head positions: the per-search
	// ghost table must deduplicate so both positions agree.
	q2 := MustParse("V(X, Y) :- E(X, Y).")
	want2 := instance.Tuple{val(1, 88), val(1, 88)}
	sameVerdict(t, "repeated ghost", searchUnder(t, pipelineConfig(), q2, d, want2), searchNaive(q2, d, want2))
}

// TestInternedWitnessDecodesFreshValues pins the pipeline's decode
// boundary: canonical databases carry labeled nulls as allocator-fresh
// values, and a witness binding one must decode back to exactly that
// value.
func TestInternedWitnessDecodesFreshValues(t *testing.T) {
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	var alloc value.Allocator
	alloc.Reserve(val(1, 20))
	null := alloc.Fresh(1)
	d.MustInsert("E", val(1, 1), null)
	for i := int64(4); i < 20; i++ {
		d.MustInsert("E", val(1, i), val(1, i+1))
	}
	q := MustParse("V(X) :- E(X, Y).")
	want := instance.Tuple{val(1, 1)}
	r := searchUnder(t, pipelineConfig(), q, d, want)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.ok {
		t.Fatal("answer not found")
	}
	if r.w["Y"] != null {
		t.Fatalf("witness Y = %v, want the fresh value %v", r.w["Y"], null)
	}
	checkWitness(t, "fresh-value witness", q, d, want, r)
}

// TestInternedReusesFrozenViewAcrossSearches pins the memoization the
// pipeline's index and plan caches rely on: two searches over an
// unmutated database share one frozen view.
func TestInternedReusesFrozenViewAcrossSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := randomGraphDB(rng, 6, 30)
	q := MustParse("V(X, Z) :- E(X, Y), E(Y, Z).")
	want := instance.Tuple{val(1, 0), val(1, 1)}
	if r := searchUnder(t, pipelineConfig(), q, d, want); r.err != nil {
		t.Fatal(r.err)
	}
	f1 := d.Frozen()
	if r := searchUnder(t, pipelineConfig(), q, d, want); r.err != nil {
		t.Fatal(r.err)
	}
	if f2 := d.Frozen(); f1 != f2 {
		t.Fatal("frozen view rebuilt between searches over an unmutated database")
	}
}

// TestScanIDMatchesNaiveRandomized pins the scan arm, forced through
// tier 0, to the naive oracle bit for bit: same dynamic atom order,
// same node counts, same witnesses — only the binding representation
// differs.
func TestScanIDMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	queries := parityQueries()
	for trial := 0; trial < 300; trial++ {
		q, d, want := randomTrial(rng, queries, 6, 28)
		tag := fmt.Sprintf("trial %d", trial)
		sameSearch(t, tag, searchNaive(q, d, want), searchUnder(t, scanConfig(), q, d, want))
	}
}

// TestAdaptiveSmallInstancesMatchNaive pins the tier-0 fast path: on
// databases whose every relation fits under the scan threshold, the
// default configuration runs the dense scan and therefore reports
// exactly the naive oracle's stats.
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
		sameSearch(t, tag, searchNaive(q, d, want), searchUnder(t, defaultCostConfig, q, d, want))
	}
}

// multiComponentQuery joins nothing across its two chains, so the plan
// splits into two components of two steps each.
func multiComponentQuery() *Query {
	return MustParse("V(X, Z, A, C) :- E(X, Y), E(Y, Z), E(A, B), E(B, C).")
}

// parallelConfig is pipelineConfig with the parallel gate wide open on
// four workers, whatever the machine's core count.
func parallelConfig() costConfig {
	cfg := pipelineConfig()
	cfg.parallelMinNodes = 0
	cfg.parallelWorkers = 4
	return cfg
}

// TestParallelComponentsMatchSequential runs the pipeline with four
// component workers and with one, on found, not-found, and
// empty-component outcomes: verdicts, Nodes, CompNodes, and witnesses
// must be bit-identical.
func TestParallelComponentsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	q := multiComponentQuery()
	for trial := 0; trial < 120; trial++ {
		nodes := int64(4 + rng.Intn(6))
		d := randomGraphDB(rng, nodes, 12+rng.Intn(50))
		want := make(instance.Tuple, len(q.Head))
		for i := range want {
			want[i] = val(1, rng.Int63n(nodes+1))
		}
		tag := fmt.Sprintf("trial %d", trial)
		// Sanity: the cost model must actually pick the parallel
		// pipeline for this shape, or the test is vacuous.
		if trial == 0 {
			eq := NewEqClasses(q)
			rels, relIdxs, err := resolveRelations(q, d)
			if err != nil {
				t.Fatal(err)
			}
			pres, _ := streamPrebindings(q, eq, want)
			plan := buildPlan(q, rels, relIdxs, eq, pres)
			cfg := parallelConfig()
			if c := choosePlan(d.Frozen(), plan, &cfg); !c.usePipeline || !c.parallel || len(plan.comps) != 2 {
				t.Fatalf("expected a two-component parallel pipeline, got %+v over %d components", c, len(plan.comps))
			}
		}
		sameSearch(t, tag, searchUnder(t, pipelineConfig(), q, d, want), searchUnder(t, parallelConfig(), q, d, want))
	}
}

// TestParallelCancellationObserved pins the polling contract on the
// parallel path: each worker polls under its own masked counter, so a
// pre-canceled context must be observed within cancelCheckMask+1 nodes
// per reported component.
func TestParallelCancellationObserved(t *testing.T) {
	withCostConfig(t, parallelConfig(), func() {
		d := cancelGraph(t, true)
		// Two 11-step chains over the two-component complete digraph,
		// each pinned 1→4 across the digraph's components: both plan
		// components are unsatisfiable and fan out well past the poll
		// mask before exhausting, so an unobserved cancellation would
		// be caught.
		q := MustParse("V(A1, A12, B1, B12) :- " +
			"E(A1, A2), E(A2, A3), E(A3, A4), E(A4, A5), E(A5, A6), E(A6, A7), E(A7, A8), E(A8, A9), E(A9, A10), E(A10, A11), E(A11, A12), " +
			"E(B1, B2), E(B2, B3), E(B3, B4), E(B4, B5), E(B5, B6), E(B6, B7), E(B7, B8), E(B8, B9), E(B9, B10), E(B10, B11), E(B11, B12).")
		want := instance.Tuple{val(1, 1), val(1, 4), val(1, 1), val(1, 4)}
		// Control: uncancelled, each component must exhaust past the
		// first poll point, or the assertion below is vacuous.
		okC, _, esC, errC := FindAnswerBindingCtx(context.Background(), q, d, want)
		if errC != nil {
			t.Fatal(errC)
		}
		if okC {
			t.Fatal("cross-component chain unexpectedly satisfiable")
		}
		if esC.Nodes <= cancelCheckMask+1 {
			t.Fatalf("exhaustive search visited %d nodes, need > %d", esC.Nodes, cancelCheckMask+1)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ok, _, es, err := FindAnswerBindingCtx(ctx, q, d, want)
		if err != context.Canceled {
			t.Fatalf("canceled parallel search returned %v (ok=%v)", err, ok)
		}
		bound := int64(len(es.CompNodes)) * (cancelCheckMask + 1)
		if es.Nodes > bound {
			t.Fatalf("cancellation observed after %d nodes across %d components, contract allows at most %d",
				es.Nodes, len(es.CompNodes), bound)
		}
	})
}
