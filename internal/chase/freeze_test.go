package chase

import (
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// The view-FD two-copy test, validated against brute-force search over
// small instances.

func TestViewFDHoldsIdentityView(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T2)")
	deps := fd.KeyFDs(s)
	q := cq.MustParse("V(X, Y) :- R(X, Y).")
	// Key position 0 determines position 1 on every key-satisfying
	// instance (the view is R itself).
	ok, err := ViewFDHolds(s, deps, q, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("key FD should transfer to the identity view")
	}
	// Position 1 does not determine position 0.
	ok, err = ViewFDHolds(s, deps, q, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("non-key attribute should not determine the key")
	}
}

func TestViewFDHoldsProjectionLosesKey(t *testing.T) {
	// Projecting away the key: the remaining column no longer has any FD
	// guaranteed except trivial ones.
	s := schema.MustParse("R(k*:T1, a:T2, b:T3)")
	deps := fd.KeyFDs(s)
	q := cq.MustParse("V(Y, Z) :- R(X, Y, Z).")
	ok, err := ViewFDHolds(s, deps, q, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a should not determine b after projecting out the key")
	}
	// Trivial FD still holds.
	ok, _ = ViewFDHolds(s, deps, q, []int{0}, []int{0})
	if !ok {
		t.Error("trivial FD must hold")
	}
}

func TestViewFDHoldsJoinTransfers(t *testing.T) {
	// V(K, B) :- R(K, A), S(A', B), A = A' with both keys: K -> A -> B,
	// so K determines B in the view.
	s := schema.MustParse("R(k*:T1, a:T2)\nS(a2*:T2, b:T3)")
	deps := fd.KeyFDs(s)
	q := cq.MustParse("V(K, B) :- R(K, A), S(A2, B), A = A2.")
	ok, err := ViewFDHolds(s, deps, q, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("transitive key chain should transfer through the join")
	}
	// Without the key on S the chain breaks.
	s2 := schema.MustParse("R(k*:T1, a:T2)\nS(a2:T2, b:T3)")
	ok, err = ViewFDHolds(s2, fd.KeyFDs(s2), q, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("without S's key the FD should fail")
	}
}

func TestViewKeyHolds(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T2)")
	deps := fd.KeyFDs(s)
	ok, err := ViewKeyHolds(s, deps, cq.MustParse("V(X, Y) :- R(X, Y)."), []int{0})
	if err != nil || !ok {
		t.Errorf("identity view should keep its key: %v %v", ok, err)
	}
	ok, err = ViewKeyHolds(s, deps, cq.MustParse("V(Y, X) :- R(X, Y)."), []int{1})
	if err != nil || !ok {
		t.Errorf("swapped view keyed on the right position should hold: %v %v", ok, err)
	}
	ok, err = ViewKeyHolds(s, deps, cq.MustParse("V(Y, X) :- R(X, Y)."), []int{0})
	if err != nil || ok {
		t.Errorf("swapped view keyed on the non-key should fail: %v %v", ok, err)
	}
}

func TestViewFDHoldsConstantSelection(t *testing.T) {
	// V(Y) :- R(X, Y), X = c: on key-satisfying instances there is at
	// most one such Y, so {} -> {0} holds on the view.
	s := schema.MustParse("R(k*:T1, a:T2)")
	deps := fd.KeyFDs(s)
	q := cq.MustParse("V(Y) :- R(X, Y), X = T1:5.")
	ok, err := ViewFDHolds(s, deps, q, nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("constant key selection should make the view single-valued")
	}
	// Selecting a non-key does not.
	q2 := cq.MustParse("V(X) :- R(X, Y), Y = T2:5.")
	ok, err = ViewFDHolds(s, deps, q2, nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("non-key selection should not make the view single-valued")
	}
}

func TestViewFDHoldsPositionsValidated(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T2)")
	q := cq.MustParse("V(X) :- R(X, Y).")
	if _, err := ViewFDHolds(s, nil, q, []int{5}, []int{0}); err == nil {
		t.Error("out-of-range X position accepted")
	}
	if _, err := ViewFDHolds(s, nil, q, []int{0}, []int{-1}); err == nil {
		t.Error("out-of-range Y position accepted")
	}
}

// Brute-force cross-check: enumerate small key-satisfying instances, and
// compare ViewFDHolds against evaluating the view and testing the FD.
func TestViewFDHoldsAgainstBruteForce(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T1)")
	deps := fd.KeyFDs(s)
	queries := []*cq.Query{
		cq.MustParse("V(X, Y) :- R(X, Y)."),
		cq.MustParse("V(Y, X) :- R(X, Y)."),
		cq.MustParse("V(X, B) :- R(X, Y), R(A, B), Y = A."),
		cq.MustParse("V(Y, B) :- R(X, Y), R(A, B)."),
	}
	fds := [][2][]int{
		{{0}, {1}}, {{1}, {0}}, {{0}, {0}},
	}
	// All key-satisfying instances of R over a 2-element domain with at
	// most 2 tuples (keys distinct): enumerate.
	dom := []int64{1, 2}
	var insts []*instance.Database
	var tuples []instance.Tuple
	for _, k := range dom {
		for _, a := range dom {
			tuples = append(tuples, instance.Tuple{
				value.Value{Type: 1, N: k}, value.Value{Type: 1, N: a},
			})
		}
	}
	for i := 0; i < len(tuples); i++ {
		d := instance.NewDatabase(s)
		d.Relations[0].MustInsert(tuples[i])
		if d.SatisfiesKeys() {
			insts = append(insts, d)
		}
		for j := i + 1; j < len(tuples); j++ {
			d2 := instance.NewDatabase(s)
			d2.Relations[0].MustInsert(tuples[i])
			d2.Relations[0].MustInsert(tuples[j])
			if d2.SatisfiesKeys() {
				insts = append(insts, d2)
			}
		}
	}
	if len(insts) < 6 {
		t.Fatalf("expected several instances, got %d", len(insts))
	}
	for _, q := range queries {
		for _, f := range fds {
			claim, err := ViewFDHolds(s, deps, q, f[0], f[1])
			if err != nil {
				t.Fatal(err)
			}
			// Brute force: the claim says the FD holds on ALL instances.
			holdsEverywhere := true
			for _, d := range insts {
				ans, err := cq.Eval(q, d)
				if err != nil {
					t.Fatal(err)
				}
				if !ans.SatisfiesFD(f[0], f[1]) {
					holdsEverywhere = false
					break
				}
			}
			if claim != holdsEverywhere {
				t.Errorf("ViewFDHolds(%s, %v->%v) = %v, brute force (small instances) = %v",
					q, f[0], f[1], claim, holdsEverywhere)
			}
		}
	}
	_ = rand.Int
}

func TestChaseQueryDirect(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T1)")
	deps := fd.KeyFDs(s)
	q := cq.MustParse("V(K, A, B) :- R(K, A), R(K2, B), K = K2.")
	out, unsat, err := ChaseQuery(s, deps, q)
	if err != nil || unsat {
		t.Fatalf("chase query: %v %v", unsat, err)
	}
	eq := cq.NewEqClasses(out)
	if !eq.Same("A", "B") {
		t.Errorf("key-forced equality not added: %s", out)
	}
	// Unsatisfiable under keys.
	q2 := cq.MustParse("V(K) :- R(K, A), R(K2, B), K = K2, A = T1:1, B = T1:2.")
	_, unsat, err = ChaseQuery(s, deps, q2)
	if err != nil || !unsat {
		t.Errorf("should be unsatisfiable: %v %v", unsat, err)
	}
	// Constant propagation through the key merge.
	q3 := cq.MustParse("V(K, B) :- R(K, A), R(K2, B), K = K2, A = T1:7.")
	out3, unsat, err := ChaseQuery(s, deps, q3)
	if err != nil || unsat {
		t.Fatal(err)
	}
	eq3 := cq.NewEqClasses(out3)
	if c, ok := eq3.Const("B"); !ok || c.N != 7 {
		t.Errorf("constant not propagated to B: %s", out3)
	}
	// Errors surface.
	if _, _, err := ChaseQuery(s, deps, cq.MustParse("V(X) :- Z(X).")); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestFreezeErrors pins the freeze's error for each way a query can
// fail to load: an unknown relation, a wrong placeholder count, and a
// constant whose type the position does not take (caught by the row
// check), each after earlier atoms loaded; and AddRow's own errors.
func TestFreezeErrors(t *testing.T) {
	s := schema.MustParse("E(a:T1, b:T1)")
	for _, c := range []struct{ q, want string }{
		{"V(X) :- E(X, Y), F(Y).", `chase: query uses unknown relation "F"`},
		{"V(X) :- E(X, Y), E(Y2, Z, W), Y = Y2.", "chase: E has 3 placeholders, scheme wants 2"},
		{"V(X) :- E(X, Y), E(Y2, Z), Z = T2:1.", `chase: cell 1 of "E" has type T2, want T1`},
	} {
		if _, err := Freeze(NewTableau(s), cq.MustParse(c.q)); err == nil || err.Error() != c.want {
			t.Errorf("Freeze(%s): err %v, want %q", c.q, err, c.want)
		}
	}
	tb := NewTableau(s)
	x := tb.NewNull(1)
	for _, c := range []struct {
		rel   string
		cells []Term
		want  string
	}{
		{"F", []Term{x}, `chase: no relation "F"`},
		{"E", []Term{x}, `chase: row for "E" has 1 cells, want 2`},
		{"E", []Term{x, 7}, "chase: unknown term 7"},
		{"E", []Term{x, tb.NewNull(2)}, `chase: cell 1 of "E" has type T2, want T1`},
	} {
		if err := tb.AddRow(c.rel, c.cells); err == nil || err.Error() != c.want {
			t.Errorf("AddRow(%s, %v): err %v, want %q", c.rel, c.cells, err, c.want)
		}
	}
}
