package containment

import (
	"testing"

	"keyedeq/internal/chase"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
)

func indTGD(s *schema.Schema, fromRel string, fromPos int, toRel string, toPos int) chase.TGD {
	l := s.Relation(fromRel)
	r := s.Relation(toRel)
	body := chase.TGDAtom{Rel: fromRel, Vars: make([]string, l.Arity())}
	for p := range body.Vars {
		body.Vars[p] = "b" + string(rune('0'+p))
	}
	head := chase.TGDAtom{Rel: toRel, Vars: make([]string, r.Arity())}
	for p := range head.Vars {
		head.Vars[p] = "e" + string(rune('0'+p))
	}
	head.Vars[toPos] = body.Vars[fromPos]
	return chase.TGD{Body: []chase.TGDAtom{body}, Head: []chase.TGDAtom{head}}
}

func TestContainedUnderTheoryIND(t *testing.T) {
	s := schema.MustParse("R(a:T1)\nS(b:T1, c:T2)")
	tgds := []chase.TGD{indTGD(s, "R", 0, "S", 0)}
	q1 := cq.MustParse("V(X) :- R(X).")
	q2 := cq.MustParse("V(X) :- R(X), S(Y, Z), X = Y.")
	ok, stats, err := ContainedUnderTheory(q1, q2, s, nil, tgds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("R[0] ⊆ S[0] should make q1 ⊑ q2")
	}
	if stats.ChaseIterations == 0 {
		t.Error("chase iterations not recorded")
	}
	// Without the TGD: not contained.
	ok, _, err = ContainedUnderTheory(q1, q2, s, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("without the inclusion q1 ⋢ q2")
	}
}

func TestEquivalentUnderTheory(t *testing.T) {
	s := schema.MustParse("R(a:T1)\nS(b:T1, c:T2)")
	tgds := []chase.TGD{indTGD(s, "R", 0, "S", 0)}
	q1 := cq.MustParse("V(X) :- R(X).")
	q2 := cq.MustParse("V(X) :- R(X), S(Y, Z), X = Y.")
	ok, _, err := EquivalentUnderTheory(q1, q2, s, nil, tgds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("should be equivalent under the inclusion (q2 ⊑ q1 holds plainly)")
	}
	// Incomparable pair stays inequivalent even under the theory.
	q3 := cq.MustParse("V(Y) :- S(Y, Z).")
	ok, _, err = EquivalentUnderTheory(q1, q3, s, nil, tgds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("R-values vs S-values should differ")
	}
}

func TestContainedUnderTheoryVacuous(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T1)")
	deps := fd.KeyFDs(s)
	q := cq.MustParse("V(K) :- R(K, A), R(K2, B), K = K2, A = T1:1, B = T1:2.")
	other := cq.MustParse("V(K) :- R(K, A).")
	ok, stats, err := ContainedUnderTheory(q, other, s, deps, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !stats.ChaseFailed {
		t.Errorf("vacuous containment: ok=%v failed=%v", ok, stats.ChaseFailed)
	}
}

func TestContainedUnderTheoryErrors(t *testing.T) {
	s := schema.MustParse("R(a:T1)")
	q1 := cq.MustParse("V(X) :- R(X).")
	q2 := cq.MustParse("V(X, Y) :- R(X), R(Y).")
	if _, _, err := ContainedUnderTheory(q1, q2, s, nil, nil, 0); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Non-terminating TGD set hits the round bound.
	s2 := schema.MustParse("E(a:T1, b:T1)")
	grow := chase.TGD{
		Body: []chase.TGDAtom{{Rel: "E", Vars: []string{"x", "y"}}},
		Head: []chase.TGDAtom{{Rel: "E", Vars: []string{"y", "z"}}},
	}
	p1 := cq.MustParse("V(X) :- E(X, Y).")
	p2 := cq.MustParse("V(X) :- E(X, Y), E(Y2, Z), Y = Y2.")
	if _, _, err := ContainedUnderTheory(p1, p2, s2, nil, []chase.TGD{grow}, 3); err == nil {
		t.Error("non-terminating chase should surface an error")
	}
}

// TestTheoryStatsMatchContainment requires the theory procedures, given
// no TGDs, to return what ContainedUnder and EquivalentUnder return —
// verdict and every Stats field — with the keys and with no
// dependencies at all.  The first pair holds only through a chase
// merge; the third fails the chase.
func TestTheoryStatsMatchContainment(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T1)")
	keyed := cq.MustParse("V(A) :- R(K, A), R(K2, B), K = K2.")
	plain := cq.MustParse("V(A) :- R(K, A).")
	vacuous := cq.MustParse("V(A) :- R(K, A), R(K2, B), K = K2, A = T1:1, B = T1:2.")
	chain := cq.MustParse("V(A) :- R(K, A), R(K2, B), B = K.")
	pairs := [][2]*cq.Query{{keyed, plain}, {plain, keyed}, {vacuous, plain}, {plain, chain}, {chain, keyed}}
	for _, deps := range [][]fd.FD{fd.KeyFDs(s), nil} {
		for i, p := range pairs {
			ok, st, err := ContainedUnder(p[0], p[1], s, deps)
			tok, tst, terr := ContainedUnderTheory(p[0], p[1], s, deps, nil, 0)
			if err != nil || terr != nil {
				t.Fatalf("pair %d, %d deps: %v / %v", i, len(deps), err, terr)
			}
			if tok != ok || tst != st {
				t.Errorf("pair %d, %d deps: ContainedUnderTheory = %v %+v, ContainedUnder = %v %+v",
					i, len(deps), tok, tst, ok, st)
			}
			ok, st, err = EquivalentUnder(p[0], p[1], s, deps)
			tok, tst, terr = EquivalentUnderTheory(p[0], p[1], s, deps, nil, 0)
			if err != nil || terr != nil {
				t.Fatalf("pair %d, %d deps: %v / %v", i, len(deps), err, terr)
			}
			if tok != ok || tst != st {
				t.Errorf("pair %d, %d deps: EquivalentUnderTheory = %v %+v, EquivalentUnder = %v %+v",
					i, len(deps), tok, tst, ok, st)
			}
		}
	}
	// The pairs must exercise what the fields count.
	ok, st, err := EquivalentUnder(keyed, plain, s, fd.KeyFDs(s))
	if err != nil || !ok || st.Searches != 2 || st.ChaseMerges == 0 || st.ChaseRevisited == 0 {
		t.Fatalf("keyed pair: holds=%v %+v, %v; want an equivalence with 2 searches and chase merges", ok, st, err)
	}
	if _, st, _ := ContainedUnder(vacuous, plain, s, fd.KeyFDs(s)); !st.ChaseFailed {
		t.Fatalf("vacuous pair: %+v, want a failed chase", st)
	}
}
