package keyedeq

import (
	"context"
	"strings"
	"testing"
)

// The facade tests exercise the public API end to end, mirroring the
// paper's running examples.

func TestFacadeTheorem13(t *testing.T) {
	s1 := MustParseSchema("employee(ss*:T1, name:T2)\ndept(id*:T3)")
	s2 := MustParseSchema("d(x*:T3)\ne(nm:T2, k*:T1)")
	if !Equivalent(s1, s2) {
		t.Error("renaming/reordering should be equivalent")
	}
	w, ok, err := EquivalentWithWitness(s1, s2)
	if err != nil || !ok {
		t.Fatalf("witness: %v %v", ok, err)
	}
	good, err := VerifyDominance(w.Alpha, w.Beta)
	if err != nil || !good {
		t.Errorf("witness does not verify: %v %v", good, err)
	}
	s3 := MustParseSchema("employee(ss*:T1, name:T2, extra:T2)\ndept(id*:T3)")
	if Equivalent(s1, s3) {
		t.Error("adding an attribute must break equivalence")
	}
	if !strings.Contains(ExplainEquivalence(s1, s3), "not equivalent") {
		t.Error("Explain should say not equivalent")
	}
}

func TestFacadeQueries(t *testing.T) {
	s := MustParseSchema("E(src:T1, dst:T1)")
	d := NewDatabase(s)
	d.MustInsert("E", Value{Type: 1, N: 1}, Value{Type: 1, N: 2})
	d.MustInsert("E", Value{Type: 1, N: 2}, Value{Type: 1, N: 3})
	q := MustParseQuery("V(X, Z) :- E(X, Y), E(Y2, Z), Y = Y2.")
	out, err := EvalQuery(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Errorf("2-path answers: %s", out)
	}
	// Containment.
	q2 := MustParseQuery("V(X, Y) :- E(X, Y).")
	ok, err := Contained(q2, q2, s)
	if err != nil || !ok {
		t.Error("self containment failed")
	}
	// Minimization.
	q3 := MustParseQuery("V(X, Y) :- E(X, Y), E(A, B), X = A, Y = B.")
	m, err := MinimizeQuery(q3, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 1 {
		t.Errorf("minimize left %d atoms", len(m.Body))
	}
	eq, err := EquivalentQueries(q3, m, s)
	if err != nil || !eq {
		t.Error("minimized query must stay equivalent")
	}
}

func TestFacadeSaturationPipeline(t *testing.T) {
	q := MustParseQuery("Q(X, Y) :- R(X, Y), R(A, B), X = A.")
	if IJSaturated(q) {
		t.Error("fixture should be unsaturated")
	}
	sat, err := Saturate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !IJSaturated(sat) {
		t.Error("Saturate failed")
	}
	p, err := ToProduct(sat)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Body) != 1 {
		t.Errorf("product has %d atoms", len(p.Body))
	}
	p2, err := ProductUnder(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Body) != 1 {
		t.Errorf("ProductUnder has %d atoms", len(p2.Body))
	}
}

func TestFacadeKappa(t *testing.T) {
	s1 := MustParseSchema("R(k*:T1, a:T2)")
	s2 := MustParseSchema("P(a:T2, k*:T1)")
	iso, ok := FindIsomorphism(s1, s2)
	if !ok {
		t.Fatal("no isomorphism")
	}
	alpha, beta, err := MappingFromIsomorphism(s1, s2, iso)
	if err != nil {
		t.Fatal(err)
	}
	aK, bK, err := KappaReduction(alpha, beta, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := VerifyKappaPair(aK, bK)
	if err != nil || !ok2 {
		t.Errorf("kappa pair: %v %v", ok2, err)
	}
	k, pos := Kappa(s1)
	if k.Relations[0].Arity() != 1 || pos[0][0] != 0 {
		t.Error("Kappa shape wrong")
	}
}

func TestFacadeViewFD(t *testing.T) {
	s := MustParseSchema("R(k*:T1, a:T2)")
	q := MustParseQuery("V(X, Y) :- R(X, Y).")
	ok, err := ViewFDHolds(s, KeyFDs(s), q, []int{0}, []int{1})
	if err != nil || !ok {
		t.Errorf("view FD: %v %v", ok, err)
	}
}

func TestFacadeSearch(t *testing.T) {
	s1 := MustParseSchema("R(a*:T1)")
	s2 := MustParseSchema("P(b*:T1)")
	b := DefaultSearchBounds()
	b.MaxAtoms = 1
	ok, stats, err := SearchEquivalence(context.Background(), s1, s2, b, SearchOptions{})
	if err != nil || !ok {
		t.Errorf("search: %v %v (%+v)", ok, err, stats)
	}
}

func TestFacadeIdentityMappingCompose(t *testing.T) {
	s := MustParseSchema("R(a*:T1, b:T2)")
	id := IdentityMapping(s)
	comp, err := Compose(id, id)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := comp.IsIdentityOn(context.Background(), KeyFDs(s), nil)
	if err != nil || !ok {
		t.Errorf("id∘id should be id: %v %v", ok, err)
	}
	q := IdentityQuery(s.Relations[0])
	if q.Arity() != 2 {
		t.Error("IdentityQuery arity")
	}
	recs := Receives(q)
	if !recs[0].ReceivesAttr("R", 0) {
		t.Error("Receives on identity query")
	}
}

func TestFacadeKeyFDsAndProjectKappa(t *testing.T) {
	s := MustParseSchema("R(k*:T1, a:T2)")
	fds := KeyFDs(s)
	if len(fds) != 1 {
		t.Fatalf("KeyFDs = %v", fds)
	}
	d := NewDatabase(s)
	d.MustInsert("R", Value{Type: 1, N: 1}, Value{Type: 2, N: 5})
	k, pos := Kappa(s)
	kd := ProjectKappa(d, k, pos)
	if kd.Relations[0].Len() != 1 {
		t.Error("ProjectKappa lost tuples")
	}
}

func TestFacadeUCQ(t *testing.T) {
	s := MustParseSchema("E(src:T1, dst:T1)")
	u1, err := ParseUCQ("V(X) :- E(X, Y).\nV(Y) :- E(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	u2, err := ParseUCQ("V(X) :- E(X, Y), X = Y.")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := UCQContained(u2, u1, s, nil)
	if err != nil || !ok {
		t.Errorf("self-loop ⊑ endpoints: %v %v", ok, err)
	}
	eq, err := UCQEquivalent(u1, u2, s, nil)
	if err != nil || eq {
		t.Errorf("should not be equivalent: %v %v", eq, err)
	}
	d := NewDatabase(s)
	d.MustInsert("E", Value{Type: 1, N: 1}, Value{Type: 1, N: 2})
	out, err := EvalUCQ(u1, d)
	if err != nil || out.Len() != 2 {
		t.Errorf("EvalUCQ: %v %v", out, err)
	}
	m, err := MinimizeUCQ(u1, s, nil)
	if err != nil || len(m.Disjuncts) != 2 {
		t.Errorf("MinimizeUCQ: %v %v", m, err)
	}
}

func TestFacadeBagAndAcyclic(t *testing.T) {
	s := MustParseSchema("E(src:T1, dst:T1)")
	d := NewDatabase(s)
	d.MustInsert("E", Value{Type: 1, N: 1}, Value{Type: 1, N: 2})
	d.MustInsert("E", Value{Type: 1, N: 1}, Value{Type: 1, N: 3})
	q := MustParseQuery("V(X) :- E(X, Y).")
	counts, err := EvalBag(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if counts["(T1:1)"] != 2 {
		t.Errorf("EvalBag = %s", counts)
	}
	q2 := MustParseQuery("V(A) :- E(A, B).")
	if !BagEquivalent(q, q2) {
		t.Error("renamed queries should be bag equivalent")
	}
	if !IsAcyclic(q) {
		t.Error("single atom is acyclic")
	}
	out, stats, err := EvalAcyclic(q, d)
	if err != nil || !stats.Acyclic || out.Len() != 1 {
		t.Errorf("EvalAcyclic: %v %v %+v", out, err, stats)
	}
}

func TestFacadeTheoryAndMappingParse(t *testing.T) {
	s := MustParseSchema("R(a:T1)\nS(b:T1)")
	tgds := []TGD{{
		Body: []TGDAtom{{Rel: "R", Vars: []string{"x"}}},
		Head: []TGDAtom{{Rel: "S", Vars: []string{"x"}}},
	}}
	if !WeaklyAcyclic(s, tgds) {
		t.Error("single inclusion should be weakly acyclic")
	}
	q1 := MustParseQuery("V(X) :- R(X).")
	q2 := MustParseQuery("V(X) :- R(X), S(Y), X = Y.")
	ok, _, err := ContainedUnderTheory(q1, q2, s, nil, tgds, 0)
	if err != nil || !ok {
		t.Errorf("theory containment: %v %v", ok, err)
	}
	eq, _, err := EquivalentQueriesUnderTheory(q1, q2, s, nil, tgds, 0)
	if err != nil || !eq {
		t.Errorf("theory equivalence: %v %v", eq, err)
	}
	// ParseMapping + homomorphism witness.
	s1 := MustParseSchema("r(a*:T1)")
	s2 := MustParseSchema("p(x*:T1)")
	m, err := ParseMapping(s1, s2, "p(X) :- r(X).")
	if err != nil {
		t.Fatal(err)
	}
	if m.QueryFor("p") == nil {
		t.Error("ParseMapping lost the view")
	}
	h, ok2, err := FindHomomorphism(q2, q1, s, nil)
	if err != nil || !ok2 {
		t.Fatalf("homomorphism: %v %v", ok2, err)
	}
	if err := VerifyHomomorphism(q2, q1, h, s, nil); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestFacadeMiscCoverage(t *testing.T) {
	s := MustParseSchema("R(k*:T1, a:T2)")
	if CanonicalForm(s) == "" {
		t.Error("empty canonical form")
	}
	q := MustParseQuery("V(X, Y) :- R(X, Y).")
	if _, err := MinimizeQuery(q, s, KeyFDs(s)); err != nil {
		t.Error(err)
	}
	ok, _, err := EquivalentQueriesUnder(q, q, s, KeyFDs(s))
	if err != nil || !ok {
		t.Errorf("self equivalence under keys: %v %v", ok, err)
	}
	p, err := ParseQuery("V(X) :- R(X, Y).")
	if err != nil || p.Arity() != 1 {
		t.Error("ParseQuery")
	}
	var alloc Allocator
	v1 := alloc.Fresh(Type(1))
	if v1.Type != 1 {
		t.Error("Allocator alias broken")
	}
	var choice Choice
	if choice.Of(2).Type != 2 {
		t.Error("Choice alias broken")
	}
}

func TestFacadeProgram(t *testing.T) {
	base := MustParseSchema("E(src:T1, dst:T1)")
	p1, err := ParseProgram(base, "def two(src:T1, dst:T1)\ntwo(X, Z) :- E(X, Y), E(Y2, Z), Y = Y2.")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseProgram(base, "def two(src:T1, dst:T1)\ntwo(A, C) :- E(B2, C), E(A, B), B = B2.")
	if err != nil {
		t.Fatal(err)
	}
	eq, err := ProgramEquivalent(p1, "two", p2, "two", nil)
	if err != nil || !eq {
		t.Errorf("programs should be equivalent: %v %v", eq, err)
	}
	d := NewDatabase(base)
	d.MustInsert("E", Value{Type: 1, N: 1}, Value{Type: 1, N: 2})
	d.MustInsert("E", Value{Type: 1, N: 2}, Value{Type: 1, N: 3})
	ext, err := p1.Eval(d)
	if err != nil || ext.Relation("two").Len() != 1 {
		t.Errorf("program eval: %v %v", ext, err)
	}
}
