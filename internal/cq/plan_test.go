package cq

import (
	"context"
	"math/rand"
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
)

// chainDB builds E(a,b) holding a path 0 -> 1 -> ... -> n, which is
// large enough (n > smallRelScanThreshold) that planned steps index.
func chainDB(t *testing.T, n int) *instance.Database {
	t.Helper()
	s := schema.MustParse("E(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	for i := 0; i < n; i++ {
		d.MustInsert("E", val(1, int64(i)), val(1, int64(i+1)))
	}
	return d
}

func mustPlan(t *testing.T, q *Query, d *instance.Database) *searchPlan {
	t.Helper()
	comp := Compile(q)
	if err := resolveCompiled(q, comp, d.Schema); err != nil {
		t.Fatal(err)
	}
	s := newIDSearchCore(context.Background(), d.Frozen(), comp)
	s.pin(q, comp, nil)
	return s.buildPlan(comp)
}

func TestPlanMostConstrainedFirst(t *testing.T) {
	// The constant pins Z, so E(Y, Z) starts with a bound position and
	// must lead its component; the X-Y link then unrolls from it.  The
	// prebound Z carries no join constraint, so E(Z, W) — whose other
	// variable W is fresh — forms its own component.
	d := chainDB(t, 20)
	q := MustParse("V(X) :- E(X, Y), E(Y, Z), E(Z, W), Z = T1:10.")
	plan := mustPlan(t, q, d)
	if len(plan.comps) != 2 {
		t.Fatalf("want 2 components, got %d", len(plan.comps))
	}
	steps := plan.comps[0].steps
	if len(steps) != 2 || steps[0].atom != 1 {
		t.Fatalf("first component starts with atom %d (%d steps), want atom 1 (the Z-bound one) of 2",
			steps[0].atom, len(steps))
	}
	// Every step must come in with at least one bound position (first by
	// the constant, then by the shared Y), hence probe an index.
	for ci, comp := range plan.comps {
		for i, st := range comp.steps {
			if len(st.keyPos) == 0 {
				t.Errorf("component %d step %d (atom %d) has no bound positions", ci, i, st.atom)
			}
			if st.indexSlot < 0 {
				t.Errorf("component %d step %d (atom %d) scans; want an index probe on this 20-tuple relation",
					ci, i, st.atom)
			}
		}
	}
}

func TestPlanComponentDecomposition(t *testing.T) {
	// X-Y and Z-W chains share no variables: two components.  Both head
	// variables land in their own component's headRoots.
	d := chainDB(t, 12)
	q := MustParse("V(X, Z) :- E(X, Y), E(Z, W).")
	plan := mustPlan(t, q, d)
	if len(plan.comps) != 2 {
		t.Fatalf("want 2 components, got %d", len(plan.comps))
	}
	for ci, comp := range plan.comps {
		if len(comp.steps) != 1 {
			t.Errorf("component %d has %d steps, want 1", ci, len(comp.steps))
		}
		if len(comp.headRoots) != 1 {
			t.Errorf("component %d determines %d head classes, want 1", ci, len(comp.headRoots))
		}
	}
}

func TestPlanPreboundClassesDoNotConnect(t *testing.T) {
	// Y is equated to a constant, so the two atoms only share a fixed
	// class — each filters independently and the join graph splits.
	d := chainDB(t, 12)
	q := MustParse("V(X, Z) :- E(X, Y), E(Y, Z), Y = T1:5.")
	plan := mustPlan(t, q, d)
	if len(plan.comps) != 2 {
		t.Fatalf("want 2 components (constant-bound class carries no join), got %d", len(plan.comps))
	}
}

func TestPlanIndexSlotSharing(t *testing.T) {
	// Atoms 1 and 2 are both entered with position 0 bound against the
	// same relation, so they must share one index slot.
	d := chainDB(t, 20)
	q := MustParse("V(X) :- E(X, Y), E(Y, Z), E(Y, W).")
	plan := mustPlan(t, q, d)
	if len(plan.comps) != 1 {
		t.Fatalf("want 1 component, got %d", len(plan.comps))
	}
	slots := make(map[int]int)
	for _, st := range plan.comps[0].steps {
		if st.indexSlot >= 0 {
			slots[st.indexSlot]++
		}
	}
	shared := false
	for _, n := range slots {
		if n > 1 {
			shared = true
		}
	}
	if !shared {
		t.Errorf("no index slot shared across steps; slots = %v, numSlots = %d", slots, plan.numSlots)
	}
	if plan.numSlots >= 3 {
		t.Errorf("numSlots = %d, want fewer slots than indexed steps", plan.numSlots)
	}
}

func TestPlanSmallRelationScans(t *testing.T) {
	// A relation at or under the scan threshold never pays for an index.
	d := chainDB(t, smallRelScanThreshold)
	q := MustParse("V(X) :- E(X, Y), E(Y, Z).")
	plan := mustPlan(t, q, d)
	for _, comp := range plan.comps {
		for _, st := range comp.steps {
			if st.indexSlot >= 0 {
				t.Errorf("atom %d got index slot %d on a %d-tuple relation; want scan",
					st.atom, st.indexSlot, smallRelScanThreshold)
			}
		}
	}
}

func TestPlannedEvalMatchesNaiveRandomized(t *testing.T) {
	// Random chain-shaped queries over random graphs: planned and naive
	// evaluation must produce identical answer relations.
	rng := rand.New(rand.NewSource(7))
	s := schema.MustParse("E(a:T1, b:T1)")
	for trial := 0; trial < 50; trial++ {
		d := instance.NewDatabase(s)
		nodes := int64(3 + rng.Intn(5))
		edges := 5 + rng.Intn(20)
		for i := 0; i < edges; i++ {
			d.MustInsert("E", val(1, rng.Int63n(nodes)), val(1, rng.Int63n(nodes)))
		}
		var q *Query
		switch rng.Intn(3) {
		case 0:
			q = MustParse("V(X, Z) :- E(X, Y), E(Y, Z).")
		case 1:
			q = MustParse("V(X) :- E(X, X).")
		default:
			q = MustParse("V(X, W) :- E(X, Y), E(Z, W), Y = Z.")
		}
		planned, _, err := EvalWithStats(q, d)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := naiveEval(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if planned.Len() != naive.Len() {
			t.Fatalf("trial %d: planned %d answers, naive %d", trial, planned.Len(), naive.Len())
		}
		for _, tp := range naive.Tuples() {
			if !planned.Has(tp) {
				t.Fatalf("trial %d: planned missing answer %v", trial, tp)
			}
		}
	}
}

func TestPlannedSearchVisitsFewerNodes(t *testing.T) {
	// On a long chain query over a long path, index probes visit a
	// bounded frontier while naive scans the whole relation per atom.
	d := chainDB(t, 40)
	q := MustParse("V(A, E) :- E(A, B), E(B, C), E(C, D), E(D, E).")
	want := instance.Tuple{val(1, 0), val(1, 4)}
	p := searchArm(findAnswerPipeline, q, d, want)
	n := searchNaive(q, d, want)
	if p.err != nil || n.err != nil {
		t.Fatal(p.err, n.err)
	}
	if !p.ok || !n.ok {
		t.Fatalf("answer not found: planned %v, naive %v", p.ok, n.ok)
	}
	if p.es.Nodes*2 > n.es.Nodes {
		t.Errorf("planned visited %d nodes, naive %d; want at least 2x fewer", p.es.Nodes, n.es.Nodes)
	}
}

func TestPlannedWitnessRespectsEqualities(t *testing.T) {
	d := chainDB(t, 20)
	q := MustParse("V(X, Z) :- E(X, Y), E(U, Z), Y = U.")
	want := instance.Tuple{val(1, 3), val(1, 5)}
	r := searchArm(findAnswerPipeline, q, d, want)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.ok {
		t.Fatal("answer not found")
	}
	witness := r.w
	if witness["Y"] != witness["U"] {
		t.Errorf("witness violates Y = U: %v vs %v", witness["Y"], witness["U"])
	}
	if witness["X"] != val(1, 3) || witness["Z"] != val(1, 5) {
		t.Errorf("witness head bindings wrong: X=%v Z=%v", witness["X"], witness["Z"])
	}
}

func TestPlannedSearchCancellation(t *testing.T) {
	// A pre-canceled context must surface as an error once the search
	// does enough work to poll (the chain is long enough to cross
	// cancelCheckMask nodes).
	d := chainDB(t, 600)
	q := MustParse("V(X, Z) :- E(X, Y), E(Y, Z).")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := instance.NewRelation(nil)
	_, err := evalPipeline(ctx, q, d, out)
	if err == nil {
		t.Fatal("want cancellation error, got nil")
	}
}

func TestPlannedHeadFreeComponentExistenceOnly(t *testing.T) {
	// The E(Z, W) atom shares nothing with the head: it only gates
	// non-emptiness, and must not multiply the answers.
	d := chainDB(t, 12)
	q := MustParse("V(X) :- E(X, Y), E(Z, W).")
	out, err := Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 12 {
		t.Fatalf("got %d answers, want 12 (one per edge source)", out.Len())
	}
}

func TestPlannedEmptyRelationRefutesEarly(t *testing.T) {
	s := schema.MustParse("E(a:T1, b:T1)\nF(a:T1)")
	d := instance.NewDatabase(s)
	d.MustInsert("E", val(1, 0), val(1, 1))
	q := MustParse("V(X) :- E(X, Y), F(Y).")
	r := searchArm(findAnswerPipeline, q, d, instance.Tuple{val(1, 0)})
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.ok {
		t.Fatal("found an answer through an empty relation")
	}
}

func TestSearchModeString(t *testing.T) {
	if SearchAdaptive.String() != "adaptive" || SearchNaive.String() != "naive" {
		t.Errorf("mode strings wrong: %q, %q", SearchAdaptive.String(), SearchNaive.String())
	}
	var zero SearchMode
	if zero != SearchAdaptive {
		t.Errorf("zero SearchMode is %v, want adaptive", zero)
	}
}

// TestReleaseDropsLargeIndexSlots holds the pool's size bound: an
// index slot built over more than MaxPooledSlots rows leaves the core
// on release, while a slot built over a small relation keeps its
// tables for the next search.
func TestReleaseDropsLargeIndexSlots(t *testing.T) {
	s := schema.MustParse("E(a:T1, b:T1)\nF(a:T1, b:T1)")
	d := instance.NewDatabase(s)
	for i := int64(0); i <= MaxPooledSlots; i++ {
		d.MustInsert("E", val(1, i), val(1, i+1))
	}
	for i := int64(0); i < 2*smallRelScanThreshold; i++ {
		d.MustInsert("F", val(1, i), val(1, i+1))
	}
	q := MustParse("V(X, U) :- E(X, Y), E(Y2, Z), F(U, W), F(W2, R), Y = Y2, W = W2.")
	comp := Compile(q)
	defer comp.Release()
	if err := resolveCompiled(q, comp, s); err != nil {
		t.Fatal(err)
	}
	core := newIDSearchCore(context.Background(), d.Frozen(), comp)
	if !core.pin(q, comp, instance.Tuple{val(1, 0), val(1, 0)}) {
		t.Fatal("pin missed")
	}
	plan := core.buildPlan(comp)
	if !runComponentsSequential(newStreamSearcher(core, plan), plan) || plan.numSlots != 2 {
		t.Fatalf("search missed or built %d index slots, want a hit over 2", plan.numSlots)
	}
	idx := core.stream.idx
	core.release()
	for i, rel := range []string{"E", "F"} {
		big := rel == "E"
		if kept := idx[i].rows != nil; kept == big {
			t.Errorf("slot %d over %s: kept %v after release, want %v", i, rel, kept, !big)
		}
	}
}
