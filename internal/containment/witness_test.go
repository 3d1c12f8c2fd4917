package containment

import (
	"strings"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
)

func TestFindHomomorphismBasic(t *testing.T) {
	s := schema.MustParse("E(src:T1, dst:T1)")
	q1 := cq.MustParse("V(X) :- E(X, Y), E(Y2, Z), Y = Y2.")
	q2 := cq.MustParse("V(A) :- E(A, B).")
	h, ok, err := FindHomomorphism(q1, q2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("containment should hold")
	}
	if err := VerifyHomomorphism(q1, q2, h, s, nil); err != nil {
		t.Errorf("witness fails verification: %v (h = %s)", err, h)
	}
	// A must map to X (the head), B to something in Y's class.
	if h["A"].IsConst || h["A"].Var != "X" {
		t.Errorf("A should map to X: %s", h)
	}
}

func TestFindHomomorphismAbsent(t *testing.T) {
	s := schema.MustParse("E(src:T1, dst:T1)")
	q1 := cq.MustParse("V(A) :- E(A, B).")
	q2 := cq.MustParse("V(X) :- E(X, Y), E(Y2, Z), Y = Y2.")
	_, ok, err := FindHomomorphism(q1, q2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("edge ⋢ 2-path; no homomorphism should exist")
	}
}

func TestFindHomomorphismWithConstants(t *testing.T) {
	s := schema.MustParse("E(src:T1, dst:T1)")
	q1 := cq.MustParse("V(X) :- E(X, Y), Y = T1:5.")
	q2 := cq.MustParse("V(A) :- E(A, B).")
	h, ok, err := FindHomomorphism(q1, q2, s, nil)
	if err != nil || !ok {
		t.Fatalf("containment should hold: %v %v", ok, err)
	}
	if err := VerifyHomomorphism(q1, q2, h, s, nil); err != nil {
		t.Errorf("witness fails: %v (h = %s)", err, h)
	}
	// B maps into Y's class; since Y is bound to the constant, either a
	// variable of that class or the constant itself is acceptable.
	img := h["B"]
	if img.IsConst && img.Const.N != 5 {
		t.Errorf("B maps to wrong constant: %s", h)
	}
}

func TestFindHomomorphismUnderKeys(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T1)")
	deps := fd.KeyFDs(s)
	q1 := cq.MustParse("V(K, A, B) :- R(K, A), R(K2, B), K = K2.")
	q2 := cq.MustParse("V(K, A, A) :- R(K, A).")
	// Without the key no homomorphism exists; with it the chase merges
	// A and B, enabling one.
	_, ok, err := FindHomomorphism(q1, q2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("containment should fail without keys")
	}
	h, ok, err := FindHomomorphism(q1, q2, s, deps)
	if err != nil || !ok {
		t.Fatalf("containment should hold under keys: %v %v", ok, err)
	}
	if err := VerifyHomomorphism(q1, q2, h, s, deps); err != nil {
		t.Errorf("witness fails under keys: %v (h = %s)", err, h)
	}
}

func TestFindHomomorphismVacuous(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T1)")
	deps := fd.KeyFDs(s)
	q1 := cq.MustParse("V(K) :- R(K, A), R(K2, B), K = K2, A = T1:1, B = T1:2.")
	q2 := cq.MustParse("V(K) :- R(K, A).")
	h, ok, err := FindHomomorphism(q1, q2, s, deps)
	if err != nil || !ok {
		t.Fatalf("vacuous containment should hold: %v %v", ok, err)
	}
	if h != nil {
		t.Error("vacuous containment should have nil witness")
	}
	if err := VerifyHomomorphism(q1, q2, h, s, deps); err != nil {
		t.Errorf("vacuous verify should pass: %v", err)
	}
}

func TestVerifyHomomorphismRejectsBadWitness(t *testing.T) {
	s := schema.MustParse("E(src:T1, dst:T1)")
	q1 := cq.MustParse("V(X) :- E(X, Y), E(Y2, Z), Y = Y2.")
	q2 := cq.MustParse("V(A) :- E(A, B).")
	bad := Homomorphism{"A": cq.Term{Var: "Z"}, "B": cq.Term{Var: "X"}}
	if err := VerifyHomomorphism(q1, q2, bad, s, nil); err == nil {
		t.Error("bad witness accepted")
	}
	missing := Homomorphism{"A": cq.Term{Var: "X"}}
	if err := VerifyHomomorphism(q1, q2, missing, s, nil); err == nil {
		t.Error("incomplete witness accepted")
	}
}

func TestHomomorphismAgreesWithContained(t *testing.T) {
	s := schema.MustParse("E(src:T1, dst:T1)")
	pool := []*cq.Query{
		cq.MustParse("V(X) :- E(X, Y)."),
		cq.MustParse("V(X) :- E(X, Y), X = Y."),
		cq.MustParse("V(X) :- E(X, Y), E(Y2, Z), Y = Y2."),
		cq.MustParse("V(X) :- E(X, Y), E(A, B), Y = A, B = X."),
	}
	for i, q1 := range pool {
		for j, q2 := range pool {
			want, err := Contained(q1, q2, s)
			if err != nil {
				t.Fatal(err)
			}
			h, got, err := FindHomomorphism(q1, q2, s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("FindHomomorphism disagrees with Contained on (%d,%d)", i, j)
			}
			if got {
				if err := VerifyHomomorphism(q1, q2, h, s, nil); err != nil {
					t.Errorf("(%d,%d): witness fails: %v", i, j, err)
				}
			}
		}
	}
}

func TestHomomorphismString(t *testing.T) {
	h := Homomorphism{"B": cq.Term{Var: "X"}, "A": cq.Term{Var: "Y"}}
	str := h.String()
	if !strings.Contains(str, "A -> Y") || !strings.Contains(str, "B -> X") {
		t.Errorf("String = %q", str)
	}
	if strings.Index(str, "A ->") > strings.Index(str, "B ->") {
		t.Errorf("not sorted: %q", str)
	}
}

// TestVerifyHomomorphismRejectsUnknownVariables holds the verifier to
// q1's body placeholders: an image, or a q1 head variable, that names
// no body variable of q1 must fail with an error naming it, where an
// unchecked lookup would read it as q1's first term and pass.
func TestVerifyHomomorphismRejectsUnknownVariables(t *testing.T) {
	s := schema.MustParse("E(src:T1, dst:T1)")
	q1 := cq.MustParse("V(X) :- E(X, Y).")
	q2 := cq.MustParse("V(A) :- E(A, B).")
	for _, tc := range []struct {
		q1   *cq.Query
		h    Homomorphism
		name string
	}{
		{q1, Homomorphism{"A": {Var: "NOPE"}, "B": {Var: "Y"}}, "NOPE"},
		{q1, Homomorphism{"A": {Var: "X"}, "B": {Var: "NOPE"}}, "NOPE"},
		{cq.MustParse("V(Z) :- E(X, Y)."), Homomorphism{"A": {Var: "X"}, "B": {Var: "Y"}}, "Z"},
	} {
		err := VerifyHomomorphism(tc.q1, q2, tc.h, s, nil)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("h = %s over %s: got %v, want an error naming %s", tc.h, tc.q1, err, tc.name)
		}
	}
	if err := VerifyHomomorphism(q1, q2, Homomorphism{"A": {Var: "X"}, "B": {Var: "Y"}}, s, nil); err != nil {
		t.Errorf("valid certificate rejected: %v", err)
	}
}
