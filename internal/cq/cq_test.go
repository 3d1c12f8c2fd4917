package cq

import (
	"strings"
	"testing"

	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

var testSchema = schema.MustParse(`
P(p1:T1, p2:T2)
Q2(q1:T2, q2:T3)
R(r1:T1, r2:T2)
S(s1*:T1, s2:T2, s3:T3)
`)

func TestParsePrintRoundTrip(t *testing.T) {
	queries := []string{
		"Q(X, Y) :- P(X, Y).",
		"Q(X, Y) :- P(X, A), Q2(B, Y), A = B.",
		"Q(X) :- P(X, Y), Y = T2:5.",
		"Q(T1:7, Y) :- P(X, Y).",
		"Q(X, X) :- P(X, Y).",
		"Q(X, Y, Z) :- S(X, Y, Z).",
	}
	for _, text := range queries {
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", text, q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("round trip changed query: %q vs %q", q.String(), q2.String())
		}
	}
}

func TestParseNormalizesConstantOnLeft(t *testing.T) {
	q := MustParse("Q(X) :- P(X, Y), T2:5 = Y.")
	if len(q.Eqs) != 1 || q.Eqs[0].Left != "Y" || !q.Eqs[0].Right.IsConst {
		t.Errorf("normalization failed: %v", q.Eqs)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Q(X)",                          // no :-
		"Q(X :- P(X, Y).",               // bad head
		"Q(X) :- .",                     // empty body
		"Q(X) :- P(X, T1:1).",           // constant placeholder
		"Q(X) :- P(X, Y), T1:1 = T1:2.", // no variable in equality
		"Q(X) :- P(X, Y), = Y.",         // missing lhs
		"Q(X) :- P(X, Y), Z =.",         // missing rhs
		"Q(X) :- P(X,, Y).",             // empty arg
		"Q(X(Y)) :- P(X, Y).",           // bad head term
		"Q(X) :- P(X, T1:_2).",          // a null's text as placeholder
		"Q(X) :- P(X, T1:y).",           // type name, bad ordinal
		"Q(T1:_2) :- P(X, Y).",          // a null's text in the head
		"Q(X) :- P(X, Y), Y = T1:y.",    // bad ordinal on the right
		"Q(X) :- P(X, Y), T1:_2 = Y.",   // bad ordinal on the left
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q): want error", text)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []string{
		"V(X, Y) :- P(X, Y).",
		"V(X) :- P(X, A), R(Y, B), A = B.",
		"V(X) :- P(X, A), A = T2:9.",
		"V(T1:3) :- P(X, A).",
	}
	for _, text := range good {
		if err := MustParse(text).Validate(testSchema); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", text, err)
		}
	}
	bad := []struct {
		text, why string
	}{
		{"V(X) :- Z(X, Y).", "unknown relation"},
		{"V(X) :- P(X).", "arity"},
		{"V(X) :- P(X, X).", "reused placeholder in one atom"},
		{"V(X) :- P(X, Y), R(X, B).", "reused placeholder across atoms"},
		{"V(W) :- P(X, Y).", "head var not in body"},
		{"V(X) :- P(X, Y), Z = Y.", "equality var not in body"},
		{"V(X) :- P(X, Y), Y = W.", "equality rhs var not in body"},
		{"V(X) :- P(X, Y), X = Y.", "type clash T1=T2"},
		{"V(X) :- P(X, Y), X = T2:3.", "selection type clash"},
	}
	for _, tt := range bad {
		if err := MustParse(tt.text).Validate(testSchema); err == nil {
			t.Errorf("Validate(%q) = nil, want error (%s)", tt.text, tt.why)
		}
	}
}

// TestValidateRejectsLabeledNulls builds queries that hold a labeled
// null, which no query text can name: Validate rejects a null in the
// head or in a selection, each with its own error, after the type
// checks beside it.
func TestValidateRejectsLabeledNulls(t *testing.T) {
	null := value.Value{Type: 2, Null: true, N: 2}
	head := MustParse("V(X, T2:2) :- P(X, A).")
	head.Head[1] = C(null)
	sel := MustParse("V(X) :- P(X, A), A = T2:2.")
	sel.Eqs[0].Right = C(null)
	clash := MustParse("V(X) :- P(X, A), X = T2:2.")
	clash.Eqs[0].Right = C(null)
	for _, c := range []struct {
		q    *Query
		want string
	}{
		{head, "cq: head position 1 has labeled null T2:_2"},
		{sel, "cq: selection A = T2:_2 names a labeled null"},
		{clash, "cq: selection X = T2:_2 compares T1 with T2"},
	} {
		if err := c.q.Validate(testSchema); err == nil || err.Error() != c.want {
			t.Errorf("Validate(%s) = %v, want %q", c.q, err, c.want)
		}
	}
}

func TestHeadType(t *testing.T) {
	q := MustParse("V(X, B, T3:1) :- P(X, A), Q2(B, C).")
	ht, err := q.HeadType(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	want := []value.Type{1, 2, 3}
	for i := range want {
		if ht[i] != want[i] {
			t.Errorf("HeadType[%d] = %v, want %v", i, ht[i], want[i])
		}
	}
	if _, err := MustParse("V(X) :- Z(X).").HeadType(testSchema); err == nil {
		t.Error("HeadType with unknown relation should fail")
	}
}

func TestCloneRenameIndependence(t *testing.T) {
	q := MustParse("V(X, T1:5) :- P(X, Y), R(A, B), Y = B.")
	c := q.Clone()
	c.Body[0].Vars[0] = "ZZ"
	c.Eqs[0].Left = "ZZ"
	c.Head[0].Var = "ZZ"
	if q.Body[0].Vars[0] != "X" || q.Eqs[0].Left != "Y" || q.Head[0].Var != "X" {
		t.Error("Clone shares storage")
	}
	r := q.Rename("u_")
	if r.Body[0].Vars[0] != "u_X" || r.Head[0].Var != "u_X" || r.Eqs[0].Left != "u_Y" {
		t.Errorf("Rename wrong: %s", r)
	}
	if r.Head[1] != q.Head[1] {
		t.Error("Rename must keep constants")
	}
	// Renamed query shares no variables with the original.
	seen := map[Var]bool{}
	for _, v := range q.BodyVars() {
		seen[v] = true
	}
	for _, v := range r.BodyVars() {
		if seen[v] {
			t.Errorf("Rename left shared variable %s", v)
		}
	}
}

func TestVarPosAndHasBodyVar(t *testing.T) {
	q := MustParse("V(X) :- P(X, Y), R(A, B).")
	if a, p := q.VarPos("B"); a != 1 || p != 1 {
		t.Errorf("VarPos(B) = (%d,%d)", a, p)
	}
	if a, p := q.VarPos("ZZ"); a != -1 || p != -1 {
		t.Errorf("VarPos(ZZ) = (%d,%d)", a, p)
	}
	if !q.HasBodyVar("A") || q.HasBodyVar("ZZ") {
		t.Error("HasBodyVar wrong")
	}
}

func TestConstants(t *testing.T) {
	q := MustParse("V(T1:3, X) :- P(X, Y), Y = T2:9, X = T1:3.")
	cs := q.Constants()
	if len(cs) != 2 {
		t.Fatalf("Constants = %v", cs)
	}
	if cs[0] != (value.Value{Type: 1, N: 3}) || cs[1] != (value.Value{Type: 2, N: 9}) {
		t.Errorf("Constants = %v", cs)
	}
}

func TestRelationsUsed(t *testing.T) {
	q := MustParse("V(X) :- R(X, Y), P(A, B), R(C, D).")
	got := q.RelationsUsed()
	if len(got) != 2 || got[0] != "P" || got[1] != "R" {
		t.Errorf("RelationsUsed = %v", got)
	}
}

func TestIdentityQuery(t *testing.T) {
	r := testSchema.Relation("S")
	q := Identity(r)
	if err := q.Validate(testSchema); err != nil {
		t.Fatalf("identity query invalid: %v", err)
	}
	if q.Arity() != 3 || len(q.Body) != 1 || len(q.Eqs) != 0 {
		t.Errorf("identity query malformed: %s", q)
	}
	if !strings.HasPrefix(q.String(), "S(X0, X1, X2) :- S(X0, X1, X2)") {
		t.Errorf("identity String = %q", q.String())
	}
}

func TestPaperExampleReceives(t *testing.T) {
	// Paper §2: R(X,Y,Z) :- P(X,Y), Q(T,Z), Y = T.
	// The second head attribute receives P.2 (pos 1) and Q.1 (pos 0).
	s := schema.MustParse("P(a:T1, b:T2)\nQv(c:T2, d:T3)")
	q := MustParse("R(X, Y, Z) :- P(X, Y), Qv(T, Z), Y = T.")
	if err := q.Validate(s); err != nil {
		t.Fatal(err)
	}
	recs := Receives(q)
	if !recs[1].ReceivesAttr("P", 1) || !recs[1].ReceivesAttr("Qv", 0) {
		t.Errorf("head 1 receives %v, want P.1 and Qv.0", recs[1].Attrs)
	}
	if recs[0].ReceivesAttr("Qv", 0) {
		t.Error("head 0 should not receive Qv.0")
	}
	// Paper: R(a, Y, X) :- P(X, Y): first head attr receives the constant.
	q2 := MustParse("R(T1:10, Y, X) :- P(X, Y).")
	recs2 := Receives(q2)
	if !recs2[0].HasConst || recs2[0].Const != (value.Value{Type: 1, N: 10}) {
		t.Errorf("head 0 should receive constant, got %+v", recs2[0])
	}
	if len(recs2[0].Attrs) != 0 {
		t.Errorf("constant head should receive no attributes: %v", recs2[0].Attrs)
	}
}

func TestReceivesViaSelectionBinding(t *testing.T) {
	// A head variable whose class is bound to a constant receives both
	// the attribute and the constant.
	q := MustParse("V(X) :- P(X, Y), X = T1:5.")
	recs := Receives(q)
	if !recs[0].ReceivesAttr("P", 0) {
		t.Error("should receive P.0")
	}
	if !recs[0].HasConst || recs[0].Const != (value.Value{Type: 1, N: 5}) {
		t.Error("should receive the bound constant")
	}
}

func TestInvolvedInCondition(t *testing.T) {
	q := MustParse("V(X) :- P(X, Y), R(A, B), Y = B.")
	if !InvolvedInCondition(q, "P", 1) {
		t.Error("P.1 is joined, should be involved")
	}
	if !InvolvedInCondition(q, "R", 1) {
		t.Error("R.1 is joined, should be involved")
	}
	if InvolvedInCondition(q, "P", 0) || InvolvedInCondition(q, "R", 0) {
		t.Error("unjoined positions should not be involved")
	}
	q2 := MustParse("V(X) :- P(X, Y), Y = T2:1.")
	if !InvolvedInCondition(q2, "P", 1) {
		t.Error("selection makes P.1 involved")
	}
	if InvolvedInCondition(q2, "ZZ", 0) {
		t.Error("unknown relation should not be involved")
	}
}

// refAtomString and refQueryString are the earlier renderings the
// single-builder String methods replaced: every output must match them
// byte for byte.
func refAtomString(a Atom) string {
	parts := make([]string, len(a.Vars))
	for i, v := range a.Vars {
		parts[i] = string(v)
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

func refQueryString(q *Query) string {
	var b strings.Builder
	head := q.HeadRel
	if head == "" {
		head = "Q"
	}
	b.WriteString(head + "(")
	for i, t := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString(") :- ")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(refAtomString(a))
	}
	for _, e := range q.Eqs {
		b.WriteString(", " + e.String())
	}
	b.WriteByte('.')
	return b.String()
}

func TestQueryStringMatchesReference(t *testing.T) {
	qs := []*Query{
		MustParse("Q(X, Y) :- R(X, Z), S(W, Y), Z = W, X = T1:3."),
		MustParse("V(T1:7, Y) :- P(X, Y), Y = T2:-5."),
		MustParse("V() :- P(), R(A, B, C), A = B."),
		MustParse("名前(X) :- P(X, Y)."),
		{Body: []Atom{{Rel: "R"}}},
		{
			HeadRel: "W",
			Head:    []Term{C(value.Value{}), C(value.Value{Type: 2, N: -9}), V("X")},
			Body:    []Atom{{Rel: "E", Vars: []Var{"X", "Y"}}, {Rel: "E", Vars: []Var{"Y2", ""}}},
			Eqs:     []Equality{{Left: "Y", Right: V("Y2")}, {Left: "X", Right: C(value.Value{Type: 1, N: -1})}},
		},
	}
	for _, q := range qs {
		if got, want := q.String(), refQueryString(q); got != want {
			t.Errorf("Query.String() = %q, want %q", got, want)
		}
		for _, a := range q.Body {
			if got, want := a.String(), refAtomString(a); got != want {
				t.Errorf("Atom.String() = %q, want %q", got, want)
			}
		}
	}
}
