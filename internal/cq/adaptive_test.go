package cq

import (
	"fmt"
	"strings"
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
)

// Tests of the adaptive dispatcher: the size rule's boundary, the two
// strategies it reaches for one query, and index keys on relations
// wider than 256 columns.

func TestAllSmallBoundary(t *testing.T) {
	q := MustParse("V(X, Y) :- E(X, Y).")
	at := chainDB(t, smallRelScanThreshold)
	above := chainDB(t, smallRelScanThreshold+1)
	if !allSmall(q, at.Frozen()) {
		t.Fatalf("relation with exactly %d rows must take the scan", smallRelScanThreshold)
	}
	if allSmall(q, above.Frozen()) {
		t.Fatalf("relation with %d rows must take the pipeline", smallRelScanThreshold+1)
	}
	if allSmall(MustParse("V(X) :- F(X)."), at.Frozen()) {
		t.Fatal("a relation missing from the database must not pass the size rule")
	}
	// The dispatcher follows the rule: the scan reports no component
	// breakdown, the pipeline reports one.
	want := instance.Tuple{val(1, 0), val(1, 1)}
	if r := searchAdaptive(q, at, want); r.err != nil || !r.ok || r.es.CompNodes != nil {
		t.Fatalf("at the bound: got (%v, %v, %v), want a scan hit", r.ok, r.err, r.es.CompNodes)
	}
	if r := searchAdaptive(q, above, want); r.err != nil || !r.ok || r.es.CompNodes == nil {
		t.Fatalf("above the bound: got (%v, %v, %v), want a pipeline hit", r.ok, r.err, r.es.CompNodes)
	}
}

// TestExplainPlanStrategies pins the two strategies the adaptive search
// can reach for one query: the dense scan, with no plan, when every
// relation is small, and otherwise the pipeline over the plan's
// components, searched in order with indexed steps.
func TestExplainPlanStrategies(t *testing.T) {
	q := multiComponentQuery()
	want := instance.Tuple{val(1, 1), val(1, 3), val(1, 2), val(1, 4)}

	small := chainDB(t, 6)
	r := searchAdaptive(q, small, want)
	sameVerdict(t, "small", r, searchNaive(q, small, want))
	if !r.ok || r.es.CompNodes != nil {
		t.Fatalf("small instance: got (%v, %v), want a scan hit", r.ok, r.es.CompNodes)
	}

	s := schema.MustParse("E(a:T1, b:T1)")
	big := instance.NewDatabase(s)
	completeDigraph(big, []int64{1, 2, 3, 4})
	plan := mustPlan(t, q, big)
	if len(plan.comps) != 2 || len(plan.comps[0].steps)+len(plan.comps[1].steps) != 4 {
		t.Fatalf("unexpected plan shape: %d components", len(plan.comps))
	}
	indexed := 0
	for ci := range plan.comps {
		for _, st := range plan.comps[ci].steps {
			if st.indexSlot >= 0 {
				indexed++
			}
		}
	}
	if indexed == 0 {
		t.Fatal("indexed pipeline has no indexed steps")
	}
	r = searchAdaptive(q, big, want)
	sameVerdict(t, "big", r, searchNaive(q, big, want))
	checkWitness(t, "big", q, big, want, r)
	if !r.ok || len(r.es.CompNodes) != 2 || r.es.CompNodes[0]+r.es.CompNodes[1] != r.es.Nodes {
		t.Fatalf("big instance: got (%v, %v of %d nodes), want a two-component pipeline hit", r.ok, r.es.CompNodes, r.es.Nodes)
	}
}

// wideCols is the arity of the wide-relation fixtures: two key
// positions 256 apart (1 and 257) must stay distinct index keys.
const wideCols = 258

// wideSchema declares R(c0:T1, ..., c257:T1).
func wideSchema() *schema.Schema {
	var sb strings.Builder
	sb.WriteString("R(")
	for p := 0; p < wideCols; p++ {
		if p > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "c%d:T1", p)
	}
	sb.WriteString(")")
	return schema.MustParse(sb.String())
}

// wideAtom renders R(<prefix>0, ..., <prefix>257).
func wideAtom(sb *strings.Builder, prefix string) {
	sb.WriteString("R(")
	for p := 0; p < wideCols; p++ {
		if p > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%s%d", prefix, p)
	}
	sb.WriteString(")")
}

// wideProbeQuery is V() :- R(A..), R(B..), R(C..), B1 = A2, C257 = B2:
// the plan indexes B on position 1 and C on position 257.
func wideProbeQuery() *Query {
	var sb strings.Builder
	sb.WriteString("V() :- ")
	for i, prefix := range []string{"A", "B", "C"} {
		if i > 0 {
			sb.WriteString(", ")
		}
		wideAtom(&sb, prefix)
	}
	sb.WriteString(", B1 = A2, C257 = B2.")
	return MustParse(sb.String())
}

// TestAdaptiveWideRelationIndexKeysMatchNaive holds the pipeline to the
// naive oracle on a 258-column relation whose only match needs an
// index on position 257 next to one on position 1.  Each row i chains
// its c1 to row i-1's c2, and row 5's c257 equals row 1's c2, so
// (A, B, C) = (row 0, row 1, row 5) is the one answer.
func TestAdaptiveWideRelationIndexKeysMatchNaive(t *testing.T) {
	d := instance.NewDatabase(wideSchema())
	for i := int64(0); i < 64; i++ {
		tup := make(instance.Tuple, wideCols)
		for p := range tup {
			tup[p] = val(1, i*1000+int64(p))
		}
		if i > 0 {
			tup[1] = val(1, (i-1)*1000+2)
		}
		if i == 5 {
			tup[wideCols-1] = val(1, 1*1000+2)
		}
		d.MustInsert("R", tup...)
	}
	q := wideProbeQuery()
	plan := mustPlan(t, q, d)
	if plan.numSlots != 2 {
		t.Fatalf("plan has %d index slots, want 2 (positions 1 and 257)", plan.numSlots)
	}
	naive := searchNaive(q, d, instance.Tuple{})
	if naive.err != nil || !naive.ok {
		t.Fatalf("naive: got (%v, %v), want a hit", naive.ok, naive.err)
	}
	r := searchAdaptive(q, d, instance.Tuple{})
	sameVerdict(t, "wide relation", r, naive)
	if r.es.CompNodes == nil {
		t.Fatal("64 rows must take the pipeline")
	}
	checkWitness(t, "wide relation", q, d, instance.Tuple{}, r)
}
