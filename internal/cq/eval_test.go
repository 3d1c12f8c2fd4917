package cq

import (
	"context"
	"math/rand"
	"testing"

	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

func val(t value.Type, n int64) value.Value { return value.Value{Type: t, N: n} }

func evalDB(t *testing.T) *instance.Database {
	t.Helper()
	s := schema.MustParse("R(a:T1, b:T2)\nS(c:T2, d:T3)")
	d := instance.NewDatabase(s)
	d.MustInsert("R", val(1, 1), val(2, 1))
	d.MustInsert("R", val(1, 2), val(2, 2))
	d.MustInsert("S", val(2, 1), val(3, 1))
	d.MustInsert("S", val(2, 1), val(3, 2))
	return d
}

func TestEvalProjection(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(X) :- R(X, Y).")
	out, err := Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("got %d tuples: %s", out.Len(), out)
	}
	if !out.Has(instance.Tuple{val(1, 1)}) || !out.Has(instance.Tuple{val(1, 2)}) {
		t.Errorf("wrong answers: %s", out)
	}
}

func TestEvalJoin(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(X, W) :- R(X, Y), S(Z, W), Y = Z.")
	out, err := Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	// R(1,1) joins S(1,1) and S(1,2); R(2,2) joins nothing.
	if out.Len() != 2 {
		t.Fatalf("got %s", out)
	}
	if !out.Has(instance.Tuple{val(1, 1), val(3, 1)}) || !out.Has(instance.Tuple{val(1, 1), val(3, 2)}) {
		t.Errorf("wrong join answers: %s", out)
	}
}

func TestEvalSelection(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(X) :- R(X, Y), Y = T2:2.")
	out, err := Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Has(instance.Tuple{val(1, 2)}) {
		t.Errorf("selection wrong: %s", out)
	}
}

func TestEvalConstHead(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(T3:9, X) :- R(X, Y).")
	out, err := Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range out.Tuples() {
		if tp[0] != val(3, 9) {
			t.Errorf("constant head wrong: %v", tp)
		}
	}
	if out.Len() != 2 {
		t.Errorf("len = %d", out.Len())
	}
}

func TestEvalRepeatedHeadVar(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(X, X) :- R(X, Y).")
	out, err := Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range out.Tuples() {
		if tp[0] != tp[1] {
			t.Errorf("repeated head variable mismatch: %v", tp)
		}
	}
}

func TestEvalUnsatisfiable(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(X) :- R(X, Y), Y = T2:1, Y = T2:2.")
	out, err := Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("unsatisfiable query returned %s", out)
	}
}

func TestEvalCrossProduct(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(X, W) :- R(X, Y), S(Z, W).")
	out, err := Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	// 2 R tuples × 2 S tuples, projected to (X, W): (1,1),(1,2),(2,1),(2,2).
	if out.Len() != 4 {
		t.Errorf("cross product wrong: %s", out)
	}
}

func TestEvalSelfJoin(t *testing.T) {
	s := schema.MustParse("E(src:T1, dst:T1)")
	d := instance.NewDatabase(s)
	// Path graph 1 -> 2 -> 3.
	d.MustInsert("E", val(1, 1), val(1, 2))
	d.MustInsert("E", val(1, 2), val(1, 3))
	q := MustParse("V(X, Z2) :- E(X, Y), E(Y2, Z2), Y = Y2.")
	out, err := Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Has(instance.Tuple{val(1, 1), val(1, 3)}) {
		t.Errorf("path join wrong: %s", out)
	}
}

func TestEvalErrors(t *testing.T) {
	d := evalDB(t)
	if _, err := Eval(MustParse("V(X) :- Z(X)."), d); err == nil {
		t.Error("unknown relation should error")
	}
	q := &Query{Head: []Term{V("X")}}
	if _, err := Eval(q, d); err == nil {
		t.Error("empty body should error")
	}
}

func TestEvalInto(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(X, Y) :- R(X, Y).")
	target, _ := schema.ParseRelation("out(u:T1, v:T2)")
	out, err := EvalInto(q, d, target)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scheme.Name != "out" || out.Len() != 2 {
		t.Errorf("EvalInto wrong: %s", out)
	}
	wrong, _ := schema.ParseRelation("out(u:T2, v:T1)")
	if _, err := EvalInto(q, d, wrong); err == nil {
		t.Error("type-mismatched target accepted")
	}
	short, _ := schema.ParseRelation("out(u:T1)")
	if _, err := EvalInto(q, d, short); err == nil {
		t.Error("arity-mismatched target accepted")
	}
}

func TestHasAnswer(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(X, W) :- R(X, Y), S(Z, W), Y = Z.")
	ok, _, err := HasAnswerFrozen(context.Background(), q, d.Frozen(), instance.Tuple{val(1, 1), val(3, 2)})
	if err != nil || !ok {
		t.Errorf("HasAnswerFrozen = %v, %v; want true", ok, err)
	}
	ok, _, err = HasAnswerFrozen(context.Background(), q, d.Frozen(), instance.Tuple{val(1, 2), val(3, 1)})
	if err != nil || ok {
		t.Errorf("HasAnswerFrozen = %v, %v; want false", ok, err)
	}
	if _, _, err := HasAnswerFrozen(context.Background(), q, d.Frozen(), instance.Tuple{val(1, 1)}); err == nil {
		t.Error("arity mismatch should error")
	}
	// Constant head positions must match the wanted tuple.
	qc := MustParse("V(T3:9, X) :- R(X, Y).")
	ok, _, _ = HasAnswerFrozen(context.Background(), qc, d.Frozen(), instance.Tuple{val(3, 9), val(1, 1)})
	if !ok {
		t.Error("matching constant head rejected")
	}
	ok, _, _ = HasAnswerFrozen(context.Background(), qc, d.Frozen(), instance.Tuple{val(3, 8), val(1, 1)})
	if ok {
		t.Error("mismatching constant head accepted")
	}
}

func TestHasAnswerAgreesWithEval(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T1)\nP(c:T1, d:T1)")
	rng := rand.New(rand.NewSource(99))
	queries := []*Query{
		MustParse("V(X, B) :- R(X, Y), P(A, B), Y = A."),
		MustParse("V(X, Y) :- R(X, Y), R(A, B), Y = A."),
		MustParse("V(X) :- R(X, Y), Y = T1:1."),
	}
	for trial := 0; trial < 30; trial++ {
		d := randInstance(s, rng, 5, 3)
		for _, q := range queries {
			full, err := Eval(q, d)
			if err != nil {
				t.Fatal(err)
			}
			// Every produced answer must be found by HasAnswerFrozen; a few
			// random non-answers must be rejected.
			for _, tp := range full.Tuples() {
				ok, _, err := HasAnswerFrozen(context.Background(), q, d.Frozen(), tp)
				if err != nil || !ok {
					t.Fatalf("HasAnswerFrozen missed produced tuple %v for %s", tp, q)
				}
			}
			ht, _ := q.HeadType(s)
			for i := 0; i < 5; i++ {
				tp := make(instance.Tuple, len(ht))
				for j, typ := range ht {
					tp[j] = value.Value{Type: typ, N: int64(rng.Intn(5) + 1)}
				}
				ok, _, err := HasAnswerFrozen(context.Background(), q, d.Frozen(), tp)
				if err != nil {
					t.Fatal(err)
				}
				if ok != full.Has(tp) {
					t.Fatalf("HasAnswerFrozen(%v) = %v but Eval says %v for %s on %s", tp, ok, full.Has(tp), q, d)
				}
			}
		}
	}
}

func TestEvalStatsCounted(t *testing.T) {
	d := evalDB(t)
	q := MustParse("V(X) :- R(X, Y).")
	_, stats, err := EvalWithStats(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes < 2 {
		t.Errorf("stats.Nodes = %d, want >= 2", stats.Nodes)
	}
}

// Conjunctive queries are monotone: answers over a sub-database are a
// subset of answers over the full database.
func TestEvalMonotone(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T1)\nP(c:T1, d:T1)")
	rng := rand.New(rand.NewSource(123))
	queries := []*Query{
		MustParse("V(X, B) :- R(X, Y), P(A, B), Y = A."),
		MustParse("V(X) :- R(X, Y), R(A, B), Y = A."),
		MustParse("V(X) :- R(X, Y), Y = T1:2."),
		MustParse("V(X, A) :- R(X, Y), P(A, B)."),
	}
	for trial := 0; trial < 50; trial++ {
		full := randInstance(s, rng, 6, 3)
		// Build a random sub-database.
		sub := instance.NewDatabase(s)
		for ri, r := range full.Relations {
			for _, tp := range r.Tuples() {
				if rng.Intn(2) == 0 {
					sub.Relations[ri].MustInsert(tp)
				}
			}
		}
		for _, q := range queries {
			aSub, err := Eval(q, sub)
			if err != nil {
				t.Fatal(err)
			}
			aFull, err := Eval(q, full)
			if err != nil {
				t.Fatal(err)
			}
			if !aSub.SubsetOf(aFull) {
				t.Fatalf("monotonicity violated for %s:\nsub %s -> %s\nfull %s -> %s",
					q, sub, aSub, full, aFull)
			}
		}
	}
}

// Evaluation is invariant under variable renaming (alpha-equivalence).
func TestEvalAlphaInvariant(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T1)")
	rng := rand.New(rand.NewSource(321))
	q := MustParse("V(X, B) :- R(X, Y), R(A, B), Y = A.")
	r := q.Rename("zz_")
	for trial := 0; trial < 30; trial++ {
		d := randInstance(s, rng, 5, 3)
		a1, err := Eval(q, d)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Eval(r, d)
		if err != nil {
			t.Fatal(err)
		}
		if !a1.Equal(a2) {
			t.Fatalf("alpha-renaming changed answers: %s vs %s", a1, a2)
		}
	}
}
