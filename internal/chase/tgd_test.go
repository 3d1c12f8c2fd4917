package chase

import (
	"testing"

	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

func TestTGDValidate(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T2)\nS(c:T1)")
	good := TGD{
		Body: []TGDAtom{{Rel: "R", Vars: []string{"x", "y"}}},
		Head: []TGDAtom{{Rel: "S", Vars: []string{"x"}}},
	}
	if err := good.Validate(s); err != nil {
		t.Errorf("good TGD rejected: %v", err)
	}
	bad := []TGD{
		{},
		{Body: []TGDAtom{{Rel: "Z", Vars: []string{"x"}}}, Head: good.Head},
		{Body: []TGDAtom{{Rel: "R", Vars: []string{"x"}}}, Head: good.Head},     // arity
		{Body: good.Body, Head: []TGDAtom{{Rel: "S", Vars: []string{"y"}}}},     // y is T2, S.c is T1
		{Body: []TGDAtom{{Rel: "R", Vars: []string{"", "y"}}}, Head: good.Head}, // empty var
	}
	for i, d := range bad {
		if err := d.Validate(s); err == nil {
			t.Errorf("bad TGD %d accepted: %s", i, d)
		}
	}
}

func TestTGDFiring(t *testing.T) {
	// R(x) -> S(x): chasing must add an S row for every R row.
	s := schema.MustParse("R(a:T1)\nS(b:T1)")
	d := TGD{
		Body: []TGDAtom{{Rel: "R", Vars: []string{"x"}}},
		Head: []TGDAtom{{Rel: "S", Vars: []string{"x"}}},
	}
	tb := NewTableau(s)
	n1 := tb.NewNull(1)
	n2 := tb.NewNull(1)
	tb.AddRow("R", []Term{n1})
	tb.AddRow("R", []Term{n2})
	if _, err := tb.RunWithTGDs(nil, []TGD{d}, 10); err != nil {
		t.Fatal(err)
	}
	db, vals, err := tb.ToDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("S").Len() != 2 {
		t.Errorf("S = %s, want 2 rows", db.Relation("S"))
	}
	// The S rows carry the same terms (frontier variable shared).
	if !db.Relation("S").Has([]value.Value{vals[n1]}) {
		t.Error("S missing the R value")
	}
}

func TestTGDExistential(t *testing.T) {
	// R(x) -> S(x, ?z): fresh null for z.
	s := schema.MustParse("R(a:T1)\nS(b:T1, c:T2)")
	d := TGD{
		Body: []TGDAtom{{Rel: "R", Vars: []string{"x"}}},
		Head: []TGDAtom{{Rel: "S", Vars: []string{"x", "z"}}},
	}
	tb := NewTableau(s)
	n := tb.NewNull(1)
	tb.AddRow("R", []Term{n})
	if _, err := tb.RunWithTGDs(nil, []TGD{d}, 10); err != nil {
		t.Fatal(err)
	}
	db, _, err := tb.ToDatabase()
	if err != nil {
		t.Fatal(err)
	}
	srow := db.Relation("S").Tuples()
	if len(srow) != 1 {
		t.Fatalf("S = %v", srow)
	}
	if srow[0][1].Type != 2 {
		t.Errorf("existential null has type %v", srow[0][1].Type)
	}
}

func TestTGDNotRefiredWhenSatisfied(t *testing.T) {
	// If S already contains a matching row, the trigger must not fire.
	s := schema.MustParse("R(a:T1)\nS(b:T1, c:T2)")
	d := TGD{
		Body: []TGDAtom{{Rel: "R", Vars: []string{"x"}}},
		Head: []TGDAtom{{Rel: "S", Vars: []string{"x", "z"}}},
	}
	tb := NewTableau(s)
	n := tb.NewNull(1)
	w := tb.NewNull(2)
	tb.AddRow("R", []Term{n})
	tb.AddRow("S", []Term{n, w})
	before := tb.RowCount()
	if _, err := tb.RunWithTGDs(nil, []TGD{d}, 10); err != nil {
		t.Fatal(err)
	}
	if tb.RowCount() != before {
		t.Errorf("satisfied trigger fired: rows %d -> %d", before, tb.RowCount())
	}
}

func TestTGDIdempotentSecondRun(t *testing.T) {
	s := schema.MustParse("R(a:T1)\nS(b:T1)")
	d := TGD{
		Body: []TGDAtom{{Rel: "R", Vars: []string{"x"}}},
		Head: []TGDAtom{{Rel: "S", Vars: []string{"x"}}},
	}
	tb := NewTableau(s)
	tb.AddRow("R", []Term{tb.NewNull(1)})
	tb.RunWithTGDs(nil, []TGD{d}, 10)
	after := tb.RowCount()
	tb.RunWithTGDs(nil, []TGD{d}, 10)
	if tb.RowCount() != after {
		t.Error("second chase changed the tableau")
	}
}

func TestTGDWithEGDInteraction(t *testing.T) {
	// Keys on S force merges on rows the TGD generated.
	// R(x, y) -> S(x, y) with S keyed on position 0: two R rows with the
	// same first column force their second columns equal.
	s := schema.MustParse("R(a:T1, b:T2)\nS(k*:T1, v:T2)")
	d := TGD{
		Body: []TGDAtom{{Rel: "R", Vars: []string{"x", "y"}}},
		Head: []TGDAtom{{Rel: "S", Vars: []string{"x", "y"}}},
	}
	tb := NewTableau(s)
	x := tb.NewNull(1)
	y1, y2 := tb.NewNull(2), tb.NewNull(2)
	tb.AddRow("R", []Term{x, y1})
	tb.AddRow("R", []Term{x, y2})
	if _, err := tb.RunWithTGDs(fd.KeyFDs(s), []TGD{d}, 10); err != nil {
		t.Fatal(err)
	}
	if !tb.Same(y1, y2) {
		t.Error("key on S should have merged the copied values")
	}
}

func TestTGDNonTerminatingCapped(t *testing.T) {
	// R(x, y) -> R(y, ?z): grows forever (not weakly acyclic).
	s := schema.MustParse("R(a:T1, b:T1)")
	d := TGD{
		Body: []TGDAtom{{Rel: "R", Vars: []string{"x", "y"}}},
		Head: []TGDAtom{{Rel: "R", Vars: []string{"y", "z"}}},
	}
	tb := NewTableau(s)
	tb.AddRow("R", []Term{tb.NewNull(1), tb.NewNull(1)})
	if _, err := tb.RunWithTGDs(nil, []TGD{d}, 5); err == nil {
		t.Error("non-terminating chase should hit the round cap")
	}
}

func TestWeaklyAcyclic(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T1)\nS(c:T1)")
	// Inclusion-style TGDs with no existential cycles: acyclic.
	ok := []TGD{
		{
			Body: []TGDAtom{{Rel: "R", Vars: []string{"x", "y"}}},
			Head: []TGDAtom{{Rel: "S", Vars: []string{"x"}}},
		},
		{
			Body: []TGDAtom{{Rel: "S", Vars: []string{"x"}}},
			Head: []TGDAtom{{Rel: "R", Vars: []string{"x", "z"}}},
		},
	}
	if !WeaklyAcyclic(s, ok[:1]) {
		t.Error("single inclusion should be weakly acyclic")
	}
	// The pair above has a special edge S.c -> R.b and regular edges
	// R.a -> S.c, S.c -> R.a; no cycle THROUGH the special edge target
	// back: R.b has no outgoing edges, so still acyclic.
	if !WeaklyAcyclic(s, ok) {
		t.Error("bidirectional key-column inclusions should be weakly acyclic")
	}
	// R(x, y) -> R(y, ?z): special edge into R.b and regular edge R.b ->
	// R.a feeding back: cyclic.
	bad := []TGD{{
		Body: []TGDAtom{{Rel: "R", Vars: []string{"x", "y"}}},
		Head: []TGDAtom{{Rel: "R", Vars: []string{"y", "z"}}},
	}}
	if WeaklyAcyclic(s, bad) {
		t.Error("self-feeding existential should not be weakly acyclic")
	}
}

func TestTGDMultiAtomBody(t *testing.T) {
	// R(x,y), S(y) -> U(x): only R rows whose y appears in S produce U.
	s := schema.MustParse("R(a:T1, b:T2)\nS(c:T2)\nU(d:T1)")
	d := TGD{
		Body: []TGDAtom{
			{Rel: "R", Vars: []string{"x", "y"}},
			{Rel: "S", Vars: []string{"y"}},
		},
		Head: []TGDAtom{{Rel: "U", Vars: []string{"x"}}},
	}
	tb := NewTableau(s)
	x1, x2 := tb.NewNull(1), tb.NewNull(1)
	y1, y2 := tb.NewNull(2), tb.NewNull(2)
	tb.AddRow("R", []Term{x1, y1})
	tb.AddRow("R", []Term{x2, y2})
	tb.AddRow("S", []Term{y1}) // only y1 is in S
	if _, err := tb.RunWithTGDs(nil, []TGD{d}, 10); err != nil {
		t.Fatal(err)
	}
	db, vals, err := tb.ToDatabase()
	if err != nil {
		t.Fatal(err)
	}
	u := db.Relation("U")
	if u.Len() != 1 || !u.Has([]value.Value{vals[x1]}) {
		t.Errorf("U = %s, want exactly x1", u)
	}
}
