package cq

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// These tests pin the cancelCheckMask polling contract: every search
// path — the adaptive search's pipeline over hash indexes, the
// pipeline's ≤smallRelScanThreshold scan cursors, the adaptive scan
// arm, and the naive reference search — must observe a done context
// within cancelCheckMask+1 node visits.  A path that skips
// Nodes++ or the poll would run arbitrarily far past a timeout.

// cancelChainQuery builds V(X1, Xn+1) :- E(X1, X2), ..., E(Xn, Xn+1),
// followed by the extra atoms, if any.
func cancelChainQuery(n int, extra ...string) *Query {
	var sb strings.Builder
	fmt.Fprintf(&sb, "V(X1, X%d) :- ", n+1)
	for i := 1; i <= n; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "E(X%d, X%d)", i, i+1)
	}
	for _, a := range extra {
		sb.WriteString(", " + a)
	}
	sb.WriteString(".")
	return MustParse(sb.String())
}

// adaptiveSearch runs the adaptive search, size rule included, over
// d's frozen view.
func adaptiveSearch(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	return FindAnswerBindingFrozen(ctx, q, d.Frozen(), want)
}

// completeDigraph inserts every edge between distinct vertices of verts.
func completeDigraph(d *instance.Database, verts []int64) {
	for _, a := range verts {
		for _, b := range verts {
			if a != b {
				d.MustInsert("E", val(1, a), val(1, b))
			}
		}
	}
}

// cancelGraph builds two complete components with no path between them,
// so the chain search from component one to component two fans out
// exponentially and exhausts without ever succeeding.  big selects the
// edge count: ≤smallRelScanThreshold for the scan fallback, above it
// for the indexed path.
func cancelGraph(t *testing.T, big bool) *instance.Database {
	t.Helper()
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	if big {
		// 6 + 6 = 12 edges: above the scan threshold, so bound steps
		// probe hash indexes.
		completeDigraph(d, []int64{1, 2, 3})
		completeDigraph(d, []int64{4, 5, 6})
	} else {
		// 6 + 2 = 8 edges: at the threshold, so every step scans.
		completeDigraph(d, []int64{1, 2, 3})
		d.MustInsert("E", val(1, 4), val(1, 5))
		d.MustInsert("E", val(1, 5), val(1, 4))
	}
	n := d.Relation("E").Len()
	if big && n <= smallRelScanThreshold {
		t.Fatalf("big graph has %d edges, not above scan threshold %d", n, smallRelScanThreshold)
	}
	if !big && n > smallRelScanThreshold {
		t.Fatalf("small graph has %d edges, above scan threshold %d", n, smallRelScanThreshold)
	}
	return d
}

// wantAcross asks for a chain from vertex 1 (component one) to vertex 4
// (component two) — unsatisfiable, forcing an exhaustive search.
func wantAcross() instance.Tuple {
	return instance.Tuple{val(1, 1), val(1, 4)}
}

func testCancelObserved(t *testing.T, q *Query, d *instance.Database, search searchFunc) {
	t.Helper()

	// Control: uncancelled, the search must exhaust past the first poll
	// point — otherwise the cancellation assertion below is vacuous.
	ok, _, es, err := search(context.Background(), q, d, wantAcross())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("cross-component chain unexpectedly satisfiable")
	}
	if es.Nodes <= cancelCheckMask+1 {
		t.Fatalf("exhaustive search visited %d nodes, need > %d to exercise the poll point",
			es.Nodes, cancelCheckMask+1)
	}

	// A context canceled before the search starts must be observed
	// within cancelCheckMask+1 node visits.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, _, es, err = search(ctx, q, d, wantAcross())
	if err == nil {
		t.Fatalf("canceled search returned no error (ok=%v, %d nodes)", ok, es.Nodes)
	}
	if err != context.Canceled {
		t.Fatalf("canceled search returned %v, want context.Canceled", err)
	}
	if es.Nodes > cancelCheckMask+1 {
		t.Fatalf("cancellation observed after %d nodes, contract allows at most %d",
			es.Nodes, cancelCheckMask+1)
	}
	if es.Nodes == 0 {
		t.Fatal("canceled search did no work at all; the poll point was never exercised")
	}
}

// requireArm checks, on an uncancelled run, which arm the size rule
// picks for q, so each dispatcher test below provably polls on the
// path it names.
func requireArm(t *testing.T, q *Query, d *instance.Database, pipeline bool) {
	t.Helper()
	_, _, es, err := adaptiveSearch(context.Background(), q, d, wantAcross())
	if err != nil {
		t.Fatal(err)
	}
	if got := es.CompNodes != nil; got != pipeline {
		t.Fatalf("search took the pipeline: %v, want %v", got, pipeline)
	}
}

func TestCancelObservedPlannedScanFallback(t *testing.T) {
	// The chain runs over 8 edges ≤ smallRelScanThreshold, but the
	// query also names a relation of 9 rows, so the size rule plans:
	// the pipeline's chain steps fall back to scan cursors.
	s := schema.MustParse("E(a:T1, b:T1)\nF(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	completeDigraph(d, []int64{1, 2, 3})
	d.MustInsert("E", val(1, 4), val(1, 5))
	d.MustInsert("E", val(1, 5), val(1, 4))
	for i := int64(0); i <= smallRelScanThreshold; i++ {
		d.MustInsert("F", val(1, i), val(1, i+1))
	}
	q := cancelChainQuery(9, "F(Y1, Y2)")
	requireArm(t, q, d, true)
	testCancelObserved(t, q, d, adaptiveSearch)
}

func TestCancelObservedPlannedIndexed(t *testing.T) {
	// 12 edges > smallRelScanThreshold: the size rule picks the indexed
	// pipeline.
	d := cancelGraph(t, true)
	q := cancelChainQuery(12)
	requireArm(t, q, d, true)
	testCancelObserved(t, q, d, adaptiveSearch)
}

func TestCancelObservedInternedScanFallback(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold through the scan arm: the dense
	// ID scan polls inside its own recursion.
	testCancelObserved(t, cancelChainQuery(9), cancelGraph(t, false), findAnswerScan)
}

func TestCancelObservedInternedIndexed(t *testing.T) {
	// 12 edges > smallRelScanThreshold through the scan arm: the dense
	// ID scan must poll just as well over a relation the pipeline would
	// have indexed.
	testCancelObserved(t, cancelChainQuery(12), cancelGraph(t, true), findAnswerScan)
}

func TestCancelObservedNaive(t *testing.T) {
	testCancelObserved(t, cancelChainQuery(9), cancelGraph(t, false), FindAnswerBindingNaive)
}

func TestCancelObservedStreamedScanFallback(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold through the pipeline arm: the plan
	// builds no index, so every cursor scans frozen rows directly.
	testCancelObserved(t, cancelChainQuery(9), cancelGraph(t, false), findAnswerPipeline)
}

func TestCancelObservedStreamedIndexed(t *testing.T) {
	// 12 edges > smallRelScanThreshold: bound cursors walk hash buckets,
	// built lazily under the same polling contract.
	testCancelObserved(t, cancelChainQuery(12), cancelGraph(t, true), findAnswerPipeline)
}

func TestCancelObservedAdaptiveScanArm(t *testing.T) {
	// 8 edges ≤ smallRelScanThreshold: the size rule routes the search
	// to the dense scan, which polls inside its own recursion.
	d := cancelGraph(t, false)
	q := cancelChainQuery(9)
	requireArm(t, q, d, false)
	testCancelObserved(t, q, d, adaptiveSearch)
}

func TestCancelObservedAdaptivePipeline(t *testing.T) {
	// Two 11-step chains over the two-component complete digraph, each
	// pinned 1→4 across the digraph's components: the plan has two
	// components, both unsatisfiable, and the first fans out well past
	// the poll mask before exhausting.  The pipeline searches components
	// in order, so a cancellation observed in the first ends the search:
	// no later component runs.
	d := cancelGraph(t, true)
	q := MustParse("V(A1, A12, B1, B12) :- " +
		"E(A1, A2), E(A2, A3), E(A3, A4), E(A4, A5), E(A5, A6), E(A6, A7), E(A7, A8), E(A8, A9), E(A9, A10), E(A10, A11), E(A11, A12), " +
		"E(B1, B2), E(B2, B3), E(B3, B4), E(B4, B5), E(B5, B6), E(B6, B7), E(B7, B8), E(B8, B9), E(B9, B10), E(B10, B11), E(B11, B12).")
	want := instance.Tuple{val(1, 1), val(1, 4), val(1, 1), val(1, 4)}
	okC, _, esC, errC := adaptiveSearch(context.Background(), q, d, want)
	if errC != nil {
		t.Fatal(errC)
	}
	if okC || len(esC.CompNodes) != 1 {
		t.Fatalf("uncancelled: got (%v, %v), want a miss in the first of two components", okC, esC.CompNodes)
	}
	if esC.Nodes <= cancelCheckMask+1 {
		t.Fatalf("exhaustive search visited %d nodes, need > %d", esC.Nodes, cancelCheckMask+1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, _, es, err := adaptiveSearch(ctx, q, d, want)
	if err != context.Canceled {
		t.Fatalf("canceled search returned %v (ok=%v)", err, ok)
	}
	if len(es.CompNodes) != 1 || es.Nodes > cancelCheckMask+1 {
		t.Fatalf("cancellation observed after %d nodes across components %v, contract allows at most %d in the first",
			es.Nodes, es.CompNodes, cancelCheckMask+1)
	}
}
