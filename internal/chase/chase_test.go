package chase

import (
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

var keyed = schema.MustParse("R(k*:T1, a:T2, b:T3)")

func keyDeps(s *schema.Schema) []fd.FD { return fd.KeyFDs(s) }

func TestChaseEquatesOnKeyAgreement(t *testing.T) {
	tb := NewTableau(keyed)
	k := tb.NewNull(1)
	a1, a2 := tb.NewNull(2), tb.NewNull(2)
	b1, b2 := tb.NewNull(3), tb.NewNull(3)
	if err := tb.AddRow("R", []Term{k, a1, b1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow("R", []Term{k, a2, b2}); err != nil {
		t.Fatal(err)
	}
	stats, err := tb.Run(keyDeps(keyed))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Failed() {
		t.Fatal("chase should succeed")
	}
	if !tb.Same(a1, a2) || !tb.Same(b1, b2) {
		t.Error("key chase did not equate non-key cells")
	}
	if stats.Merges < 2 {
		t.Errorf("Merges = %d, want >= 2", stats.Merges)
	}
}

func TestChaseLeavesDistinctKeysAlone(t *testing.T) {
	tb := NewTableau(keyed)
	k1, k2 := tb.NewNull(1), tb.NewNull(1)
	a1, a2 := tb.NewNull(2), tb.NewNull(2)
	b1, b2 := tb.NewNull(3), tb.NewNull(3)
	tb.AddRow("R", []Term{k1, a1, b1})
	tb.AddRow("R", []Term{k2, a2, b2})
	if _, err := tb.Run(keyDeps(keyed)); err != nil {
		t.Fatal(err)
	}
	if tb.Same(a1, a2) || tb.Same(k1, k2) {
		t.Error("chase equated cells of rows with distinct keys")
	}
}

func TestChaseCascades(t *testing.T) {
	// R(a1,x), R(a2,y) only agree on their key after R(k1,a1), R(k1,a2)
	// force a1 = a2.  The dependent rows come first, so the delta chase
	// has already bucketed them when the trigger fires and must requeue
	// them into a second wave — exercising the rowsOfRoot machinery.
	s := schema.MustParse("R(k*:T1, a:T1)")
	build := func() (tb *Tableau, x, y Term) {
		tb = NewTableau(s)
		k1 := tb.NewNull(1)
		a1 := tb.NewNull(1)
		a2 := tb.NewNull(1)
		x, y = tb.NewNull(1), tb.NewNull(1)
		// R(a1, x), R(a2, y): after a1=a2 forces x=y.
		tb.AddRow("R", []Term{a1, x})
		tb.AddRow("R", []Term{a2, y})
		// R(k1, a1), R(k1, a2): forces a1 = a2.
		tb.AddRow("R", []Term{k1, a1})
		tb.AddRow("R", []Term{k1, a2})
		return tb, x, y
	}
	tb, x, y := build()
	stats, err := tb.Run(keyDeps(s))
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Same(x, y) {
		t.Error("cascading merge missed")
	}
	if stats.Iterations < 2 {
		t.Errorf("Iterations = %d, want >= 2 (cascade needs a second wave)", stats.Iterations)
	}
	tbn, xn, yn := build()
	nstats, err := tbn.RunNaive(keyDeps(s))
	if err != nil {
		t.Fatal(err)
	}
	if !tbn.Same(xn, yn) {
		t.Error("naive chase missed the cascading merge")
	}
	if nstats.Iterations < 2 {
		t.Errorf("naive Iterations = %d, want >= 2 (cascade needs a second pass)", nstats.Iterations)
	}
}

func TestChaseFailure(t *testing.T) {
	tb := NewTableau(keyed)
	k := tb.NewConst(value.Value{Type: 1, N: 7})
	c1 := tb.NewConst(value.Value{Type: 2, N: 1})
	c2 := tb.NewConst(value.Value{Type: 2, N: 2})
	b1, b2 := tb.NewNull(3), tb.NewNull(3)
	tb.AddRow("R", []Term{k, c1, b1})
	tb.AddRow("R", []Term{k, c2, b2})
	if _, err := tb.Run(keyDeps(keyed)); err != nil {
		t.Fatal(err)
	}
	if !tb.Failed() {
		t.Error("chase equating distinct constants must fail")
	}
	if _, _, err := tb.ToDatabase(); err == nil {
		t.Error("ToDatabase of failed tableau must error")
	}
}

func TestConstInterning(t *testing.T) {
	tb := NewTableau(keyed)
	c1 := tb.NewConst(value.Value{Type: 1, N: 7})
	c2 := tb.NewConst(value.Value{Type: 1, N: 7})
	if !tb.Same(c1, c2) {
		t.Error("equal constants must share a class")
	}
	// Two rows with the same constant key must trigger the EGD.
	a1, a2 := tb.NewNull(2), tb.NewNull(2)
	b1, b2 := tb.NewNull(3), tb.NewNull(3)
	tb.AddRow("R", []Term{c1, a1, b1})
	tb.AddRow("R", []Term{c2, a2, b2})
	tb.Run(keyDeps(keyed))
	if !tb.Same(a1, a2) {
		t.Error("constant keys not recognized as equal during chase")
	}
}

func TestAssertTypeMismatch(t *testing.T) {
	tb := NewTableau(keyed)
	a := tb.NewNull(1)
	b := tb.NewNull(2)
	if err := tb.Assert(a, b); err == nil {
		t.Error("equating terms of different types must error")
	}
}

func TestAddRowErrors(t *testing.T) {
	tb := NewTableau(keyed)
	a := tb.NewNull(1)
	if err := tb.AddRow("ZZ", []Term{a}); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := tb.AddRow("R", []Term{a}); err == nil {
		t.Error("wrong arity accepted")
	}
	b := tb.NewNull(2)
	c := tb.NewNull(3)
	if err := tb.AddRow("R", []Term{b, a, c}); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := tb.AddRow("R", []Term{a, b, Term(99)}); err == nil {
		t.Error("unknown term accepted")
	}
}

func TestRunRejectsCrossRelationDeps(t *testing.T) {
	s := schema.MustParse("R(a:T1)\nS(b:T1)")
	tb := NewTableau(s)
	bad := fd.FD{X: []fd.Attr{{Rel: "R", Pos: 0}}, Y: []fd.Attr{{Rel: "S", Pos: 0}}}
	if _, err := tb.Run([]fd.FD{bad}); err == nil {
		t.Error("cross-relation dependency accepted")
	}
	badPos := fd.FD{X: []fd.Attr{{Rel: "R", Pos: 5}}, Y: []fd.Attr{{Rel: "R", Pos: 0}}}
	if _, err := tb.Run([]fd.FD{badPos}); err == nil {
		t.Error("out-of-range dependency accepted")
	}
	badRel := fd.FD{X: []fd.Attr{{Rel: "Z", Pos: 0}}, Y: []fd.Attr{{Rel: "Z", Pos: 0}}}
	if _, err := tb.Run([]fd.FD{badRel}); err == nil {
		t.Error("unknown-relation dependency accepted")
	}
}

func TestToDatabase(t *testing.T) {
	tb := NewTableau(keyed)
	k := tb.NewConst(value.Value{Type: 1, N: 7})
	a1, a2 := tb.NewNull(2), tb.NewNull(2)
	b1, b2 := tb.NewNull(3), tb.NewNull(3)
	tb.AddRow("R", []Term{k, a1, b1})
	tb.AddRow("R", []Term{k, a2, b2})
	tb.Run(keyDeps(keyed))
	d, vals, err := tb.ToDatabase()
	if err != nil {
		t.Fatal(err)
	}
	// After the chase the two rows collapse into one tuple.
	if d.Relation("R").Len() != 1 {
		t.Errorf("R has %d tuples, want 1: %s", d.Relation("R").Len(), d)
	}
	if vals[k] != (value.Value{Type: 1, N: 7}) {
		t.Errorf("constant resolved wrong: %v", vals[k])
	}
	if vals[a1] != vals[a2] {
		t.Error("equated nulls resolved differently")
	}
	if vals[a1].Type != 2 {
		t.Errorf("null type wrong: %v", vals[a1])
	}
	if !d.SatisfiesKeys() {
		t.Error("chased database must satisfy keys")
	}
}

func TestToDatabaseFreshAvoidConstants(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T1)")
	tb := NewTableau(s)
	c := tb.NewConst(value.Value{Type: 1, N: 1})
	n := tb.NewNull(1)
	tb.AddRow("R", []Term{c, n})
	_, vals, err := tb.ToDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if vals[n] == vals[c] {
		t.Error("fresh null collided with a constant")
	}
	if want := (value.Value{Type: 1, Null: true, N: 1}); vals[n] != want {
		t.Errorf("null resolved to %v, want %v", vals[n], want)
	}
}

func TestFreeze(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T2)\nS(c:T2, d:T3)")
	q := cq.MustParse("V(X, W) :- R(X, Y), S(Z, W), Y = Z, W = T3:4.")
	tb := NewTableau(s)
	vars, err := Freeze(tb, q)
	if err != nil {
		t.Fatal(err)
	}
	if tb.RowCount() != 2 {
		t.Errorf("RowCount = %d", tb.RowCount())
	}
	if !tb.Same(vars["Y"], vars["Z"]) {
		t.Error("equated variables frozen apart")
	}
	if tb.Same(vars["X"], vars["Y"]) {
		t.Error("distinct variables frozen together")
	}
	if c, ok := tb.ConstOf(vars["W"]); !ok || c != (value.Value{Type: 3, N: 4}) {
		t.Errorf("bound variable lost its constant: %v %v", c, ok)
	}
	h, err := HeadTerms(tb, q, vars)
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != vars["X"] || h[1] != vars["W"] {
		t.Errorf("head terms wrong: %v", h)
	}
}

func TestFreezeUnsatisfiable(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T2)")
	q := cq.MustParse("V(X) :- R(X, Y), Y = T2:1, Y = T2:2.")
	tb := NewTableau(s)
	if _, err := Freeze(tb, q); err != nil {
		t.Fatal(err)
	}
	if !tb.Failed() {
		t.Error("unsatisfiable query must fail the tableau")
	}
}

// TestFreezeArityMismatch: an atom with more placeholders than its
// relation has columns is an error, not an index panic.
func TestFreezeArityMismatch(t *testing.T) {
	s := schema.MustParse("R(a:T1)")
	for _, text := range []string{"V(X) :- R(X, Y).", "V(X) :- R(X), R(Y, Z)."} {
		if _, err := Freeze(NewTableau(s), cq.MustParse(text)); err == nil {
			t.Errorf("%s: arity mismatch accepted", text)
		}
	}
}

func TestFreezeUnknownRelation(t *testing.T) {
	s := schema.MustParse("R(a:T1)")
	q := cq.MustParse("V(X) :- Z(X).")
	tb := NewTableau(s)
	if _, err := Freeze(tb, q); err == nil {
		t.Error("unknown relation accepted")
	}
}
