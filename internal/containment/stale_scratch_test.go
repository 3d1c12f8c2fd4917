package containment

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// This file is the stale-scratch wall of the adaptive search.  Every
// search takes its core — bindings, plan arenas, hash index slots,
// cursors and marks — from a pool and resets what it reads, so what a
// search finds, and how many nodes it visits, must not depend on the
// searches that ran on the core before it.

// scratchCase is one search of the adaptive-vs-naive corpus: q2 looked
// for in q1's chased canonical database.
type scratchCase struct {
	label string
	db    *CanonicalDB
	q2    *cq.Query
}

// scratchOutcome is what the wall compares: the verdict, the error and
// the node counts of one search.
type scratchOutcome struct {
	ok        bool
	err       error
	nodes     int64
	compNodes []int64
}

func (o scratchOutcome) same(p scratchOutcome) bool {
	return o.ok == p.ok && o.err == nil && p.err == nil && o.nodes == p.nodes && slices.Equal(o.compNodes, p.compNodes)
}

// run searches c through the decision path's entry.
func (c scratchCase) run() scratchOutcome {
	ok, es, err := cq.HasAnswerFrozen(context.Background(), c.q2, c.db.fz, c.db.head)
	return scratchOutcome{ok: ok, err: err, nodes: es.Nodes, compNodes: es.CompNodes}
}

// scratchCorpus lists both containment directions of every pair of the
// corpus TestStreamedVsOraclesVerdicts decides, in its order, skipping
// the directions whose chase fails (they never search).
func scratchCorpus(t *testing.T) []scratchCase {
	var out []scratchCase
	for fi, fam := range metamorphicFamilies() {
		f, err := gen.PairCorpus(rand.New(rand.NewSource(int64(9000+fi))), fam, streamedPairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range f.Pairs {
			for d, dir := range [][2]*cq.Query{{p.Left, p.Right}, {p.Right, p.Left}} {
				db := NewCanonicalDB(context.Background(), dir[0], f.Schema, f.Deps)
				if db.Err() != nil {
					t.Fatalf("%s pair %d: %v", fam, i, db.Err())
				}
				if db.fz != nil {
					out = append(out, scratchCase{fmt.Sprintf("%s/%d/%d", fam, i, d), db, dir[1]})
				}
			}
		}
	}
	return out
}

// growingSearch returns a search over two 1,000-row relations that
// grows every pooled table of the core past what the corpus needs: a
// query of 192 atoms in five components, whose steps build four index
// slots of 1,000 rows — keyed on one position and on two, each at two
// position sets — and whose last component pins a constant the view
// never interned, so it misses.
func growingSearch(t *testing.T) func() {
	s := schema.MustParse("E(a:T1, b:T1)\nF(a:T1, b:T1, c:T1)")
	d := instance.NewDatabase(s)
	val := func(n int64) value.Value { return value.Value{Type: 1, N: n} }
	for i := int64(0); i < 1000; i++ {
		d.MustInsert("E", val(i), val(i+1))
		d.MustInsert("F", val(i), val(i+1), val(i+2))
	}
	fz := d.Frozen()
	// atom appends an atom over the named variables, giving a variable
	// seen before a fresh placeholder and an equality.
	q := &cq.Query{HeadRel: "V", Head: []cq.Term{{Var: "X0"}}}
	seen := map[cq.Var]bool{}
	atom := func(rel string, names ...string) {
		a := cq.Atom{Rel: rel}
		for _, n := range names {
			v := cq.Var(n)
			if seen[v] {
				fresh := cq.Var(fmt.Sprintf("%s_%d", n, len(q.Eqs)))
				q.Eqs = append(q.Eqs, cq.Equality{Left: v, Right: cq.Term{Var: fresh}})
				a.Vars = append(a.Vars, fresh)
				continue
			}
			seen[v] = true
			a.Vars = append(a.Vars, v)
		}
		q.Body = append(q.Body, a)
	}
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }
	for i := 0; i < 100; i++ { // forward E chain from the pinned head
		atom("E", name("X", i), name("X", i+1))
	}
	for i := 0; i < 50; i++ { // forward F chain: keys on positions 0 and 1
		atom("F", name("Y", i), name("Y", i+1), name("Y", i+2))
	}
	for i := 0; i < 20; i++ { // backward E chain: keys on position 1
		atom("E", name("Z", i+1), name("Z", i))
	}
	for i := 20; i >= 0; i-- { // backward F chain: keys on positions 1 and 2
		atom("F", name("W", i), name("W", i+1), name("W", i+2))
	}
	atom("E", "G", "H")
	q.Eqs = append(q.Eqs, cq.Equality{Left: "G", Right: cq.C(val(5000))})
	if err := q.Validate(s); err != nil {
		t.Fatal(err)
	}
	want := instance.Tuple{val(0)}
	return func() {
		ok, es, err := cq.HasAnswerFrozen(context.Background(), q, fz, want)
		if err != nil || ok || len(es.CompNodes) != 5 {
			t.Fatalf("growing search: found %v, err %v, %d components searched; want a miss in the fifth", ok, err, len(es.CompNodes))
		}
	}
}

// TestStaleScratchSearches runs the corpus's searches as listed,
// reversed, and each right after the growing search, and requires every
// search to find the same verdict with the same Nodes and CompNodes all
// three times.  A core that kept an index slot built, or a plan arena
// uncleared, from an earlier search answers from the other search's
// tables.
func TestStaleScratchSearches(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	cases := scratchCorpus(t)
	grow := growingSearch(t)
	listed := make([]scratchOutcome, len(cases))
	for i, c := range cases {
		if listed[i] = c.run(); listed[i].err != nil {
			t.Fatalf("%s: %v", c.label, listed[i].err)
		}
	}
	check := func(order string, i int, got scratchOutcome) {
		if !got.same(listed[i]) {
			t.Fatalf("%s, %s: found %v (err %v) in %d nodes %v; as listed %v in %d nodes %v\n  q1 db %v\n  q2 %s",
				cases[i].label, order, got.ok, got.err, got.nodes, got.compNodes,
				listed[i].ok, listed[i].nodes, listed[i].compNodes, cases[i].db.head, cases[i].q2)
		}
	}
	for i := len(cases) - 1; i >= 0; i-- {
		check("reversed", i, cases[i].run())
	}
	for i, c := range cases {
		grow()
		check("after the growing search", i, c.run())
	}
}
